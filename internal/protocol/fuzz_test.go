package protocol

import (
	"bytes"
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
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Unmarshal(frame)
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
}
