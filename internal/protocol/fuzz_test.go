package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzUnmarshal feeds arbitrary frames to the decoder. Whatever the bytes,
// Unmarshal must return a message or an error — never panic, never
// over-read — and anything it accepts must re-marshal and decode again
// (the wire format is closed under round-trips).
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := Marshal(m)
		if err != nil {
			f.Fatalf("marshal seed %v: %v", m.MsgType(), err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                // header one byte short
	f.Add([]byte{0, 0, 0, 0, byte(typeMax)}) // unknown type
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}) // absurd length claim
	// One Slab carves across inputs, as a connection's does across frames.
	var slab Slab
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Unmarshal(frame)
		// AppendUnmarshal through a Slab is the same decoder: it accepts
		// exactly what Unmarshal does, appends a batch as its elements and
		// leaves what dst held alone.
		want := []Message{&Ack{Of: TypeAck}}
		if b, isBatch := m.(*Batch); isBatch {
			want = append(want, b.Msgs...)
		} else if err == nil {
			want = append(want, m)
		}
		got, aerr := AppendUnmarshal([]Message{want[0]}, frame, &slab)
		gotFrame, _ := Marshal(&Batch{Msgs: got}) // bytes, not DeepEqual: NaN != NaN
		wantFrame, _ := Marshal(&Batch{Msgs: want})
		if (err == nil) != (aerr == nil) || !bytes.Equal(gotFrame, wantFrame) {
			t.Fatalf("AppendUnmarshal = %v, %v; Unmarshal says %v, %v", got, aerr, want, err)
		}
		if err != nil {
			return
		}
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted frame re-marshals with error: %v", err)
		}
		if _, err := Unmarshal(out); err != nil {
			t.Fatalf("re-marshaled frame no longer decodes: %v", err)
		}
	})
}

// FuzzReadFrame streams arbitrary bytes through the framer: it must slice
// frames or fail cleanly, and every frame it produces must be safe to hand
// to Unmarshal.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	for _, m := range sampleMessages() {
		frame, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		stream.Write(frame)
	}
	f.Add(stream.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 9, 1})          // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}) // length over MaxFrameSize
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			frame, err := ReadFrame(r, buf)
			if err != nil {
				return
			}
			if len(frame) < frameHeaderSize {
				t.Fatalf("ReadFrame returned a %d-byte frame, shorter than its own header", len(frame))
			}
			_, _ = Unmarshal(frame)
			buf = frame
		}
	})
}

// reassemblerSeeds are FuzzReassembler's committed inputs: a blob to round
// trip at a chunk size, then an op stream (see the target).
var reassemblerSeeds = []struct {
	name string
	blob []byte
	size uint8
	ops  []byte
}{
	{"seed-empty", nil, 0, nil},
	{"seed-two-streams", []byte("abcdefg"), 2, []byte{0, 0, 2, 1, 0, 2, 1, 0, 0}},
	{"seed-never-final", []byte{1}, 0, bytes.Repeat([]byte{0, 0x20, 0}, 9)},
	{"seed-oversize-then-final-then-blob", nil, 7, []byte{0, 0xff, 0xff, 0, 0xff, 0xff, 1, 0, 1, 1, 0, 9}},
	{"seed-final-crosses-the-bound", nil, 1, []byte{0, 0x7f, 0xff, 1, 0xff, 0xff, 1, 0, 3}},
}

// fuzzChunk backs every chunk FuzzReassembler feeds: contents are checked by
// the round-trip half, the op stream only needs lengths.
var fuzzChunk = make([]byte, 0xffff<<9)

// FuzzReassembler has two halves. Chunks → Reassembler must round-trip any
// blob at any chunk size with exactly the last chunk final. Then an op
// stream — 3 bytes each: final flag, u16 length in 512-byte units, so one
// chunk can outgrow MaxBlobSize on its own — is fed to one Reassembler next
// to a model of it: whatever the sizes and wherever Final falls it never
// panics, never holds more than MaxBlobSize, reports each overflow once, and
// returns a blob only on a final chunk closing a stream that stayed in
// bounds.
func FuzzReassembler(f *testing.F) {
	for _, s := range reassemblerSeeds {
		f.Add(s.blob, s.size, s.ops)
	}
	f.Fuzz(func(t *testing.T, blob []byte, size uint8, ops []byte) {
		var r Reassembler
		n := 0
		for chunk, final := range chunks(blob, int(size)+1) {
			n++
			got, done, err := r.Add(chunk, final)
			if err != nil || done != final || len(chunk) > int(size)+1 {
				t.Fatalf("chunk %d (%d bytes, final=%v): done=%v err=%v", n, len(chunk), final, done, err)
			}
			if done && !bytes.Equal(got, blob) {
				t.Fatalf("round trip of %d bytes at chunk size %d returned %d bytes", len(blob), int(size)+1, len(got))
			}
		}
		if want := max(1, (len(blob)+int(size))/(int(size)+1)); n != want || r.Len() != 0 {
			t.Fatalf("%d bytes at chunk size %d: %d chunks (want %d), %d bytes left behind", len(blob), int(size)+1, n, want, r.Len())
		}

		held, dropping := 0, false
		for ; len(ops) >= 3; ops = ops[3:] {
			final := ops[0]&1 == 1
			chunk := fuzzChunk[:int(ops[1])<<17|int(ops[2])<<9]
			got, done, err := r.Add(chunk, final)
			switch {
			case dropping:
				if got != nil || done || err != nil {
					t.Fatalf("inside a dropped stream: %d bytes, done=%v, err=%v", len(got), done, err)
				}
				dropping = !final
			case held+len(chunk) > MaxBlobSize:
				if got != nil || done || !errors.Is(err, ErrBlobTooLarge) {
					t.Fatalf("overflow at %d+%d bytes: %d bytes, done=%v, err=%v", held, len(chunk), len(got), done, err)
				}
				held, dropping = 0, !final
			default:
				held += len(chunk)
				if err != nil || done != final || done && len(got) != held {
					t.Fatalf("in bounds at %d bytes (final=%v): %d bytes, done=%v, err=%v", held, final, len(got), done, err)
				}
				if final {
					held = 0
				}
			}
			if r.Len() != held || r.Len() > MaxBlobSize {
				t.Fatalf("holding %d bytes, model says %d (bound %d)", r.Len(), held, MaxBlobSize)
			}
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/ from sampleMessages(). Gated behind an env var: run
//
//	MATRIX_REGEN_FUZZ_CORPUS=1 go test ./internal/protocol -run TestRegenerateFuzzCorpus
//
// after adding a message type, and commit the new files.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("MATRIX_REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set MATRIX_REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz/")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stream bytes.Buffer
	for _, m := range sampleMessages() {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		write("FuzzUnmarshal", fmt.Sprintf("seed-%s", m.MsgType()), frame)
		stream.Write(frame)
	}
	write("FuzzUnmarshal", "seed-truncated-header", []byte{0, 0, 0, 0})
	write("FuzzUnmarshal", "seed-unknown-type", []byte{0, 0, 0, 0, byte(typeMax)})
	write("FuzzUnmarshal", "seed-absurd-length", []byte{0xff, 0xff, 0xff, 0xff, 1})
	write("FuzzReadFrame", "seed-all-types-stream", stream.Bytes())
	write("FuzzReadFrame", "seed-truncated-body", []byte{0, 0, 0, 3, 9, 1})
	write("FuzzReadFrame", "seed-oversized-length", []byte{0xff, 0xff, 0xff, 0xff, 0})
	for _, s := range reassemblerSeeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbyte(%q)\n[]byte(%q)\n", s.blob, s.size, s.ops)
		if err := os.MkdirAll(filepath.Join("testdata", "fuzz", "FuzzReassembler"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzReassembler", s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
