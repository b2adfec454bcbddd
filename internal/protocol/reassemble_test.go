package protocol

import (
	"bytes"
	"errors"
	"testing"
)

// TestReassemblerBoundsNeverFinalStream: a sender that never sets Final
// cannot grow the receiver. The stream is dropped at MaxBlobSize (one error),
// the rest of it is discarded through its final chunk, and the blob after it
// arrives whole.
func TestReassemblerBoundsNeverFinalStream(t *testing.T) {
	var r Reassembler
	if blob, done, err := r.Add([]byte("ab"), false); blob != nil || done || err != nil {
		t.Fatalf("first chunk: %q %v %v", blob, done, err)
	}
	if blob, done, err := r.Add([]byte("cd"), true); !done || err != nil || string(blob) != "abcd" {
		t.Fatalf("final chunk: %q %v %v", blob, done, err)
	}
	if blob, done, err := r.Add(nil, true); !done || err != nil || len(blob) != 0 {
		t.Fatalf("empty blob (cold adopt): %q %v %v", blob, done, err)
	}

	chunk := bytes.Repeat([]byte{7}, MaxFrameSize)
	overflows, peak := 0, 0
	for sent := 0; sent < 2*MaxBlobSize; sent += len(chunk) {
		blob, done, err := r.Add(chunk, false)
		if blob != nil || done {
			t.Fatalf("never-final stream completed after %d bytes", sent)
		}
		if err != nil {
			if !errors.Is(err, ErrBlobTooLarge) {
				t.Fatalf("unexpected error: %v", err)
			}
			overflows++
		}
		peak = max(peak, r.Len())
	}
	if peak > MaxBlobSize || r.Len() != 0 {
		t.Errorf("held %d bytes at most, %d at the end; the bound is %d then 0", peak, r.Len(), MaxBlobSize)
	}
	if overflows != 1 {
		t.Errorf("overflow reported %d times, want once", overflows)
	}
	// Only a final chunk can end the dropped stream.
	if blob, done, err := r.Add([]byte("tail"), true); blob != nil || done || err != nil {
		t.Fatalf("tail of the dropped stream: %q %v %v", blob, done, err)
	}
	if blob, done, err := r.Add([]byte("next"), true); !done || err != nil || string(blob) != "next" {
		t.Fatalf("blob after the dropped stream: %q %v %v", blob, done, err)
	}
}

// TestChunksRoundTrip: Chunks and Reassembler are each other's inverse at
// every length around the chunk boundary, exactly the last chunk is final,
// and the empty blob is one empty final chunk (the cold-adopt and empty-dump
// framing).
func TestChunksRoundTrip(t *testing.T) {
	big := make([]byte, 3*ChunkSize+7)
	for i := range big {
		big[i] = byte(i*7 + i>>11)
	}
	for _, n := range []int{0, 1, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 7} {
		blob := big[:n]
		var (
			r     Reassembler
			count int
			got   []byte
			done  bool
		)
		for chunk, final := range Chunks(blob) {
			if done {
				t.Fatalf("len %d: chunk %d follows the final one", n, count)
			}
			if len(chunk) > ChunkSize || len(chunk) == 0 && n != 0 {
				t.Fatalf("len %d: chunk %d is %d bytes", n, count, len(chunk))
			}
			count++
			var err error
			if got, done, err = r.Add(chunk, final); err != nil || done != final {
				t.Fatalf("len %d: chunk %d (final=%v): done=%v err=%v", n, count, final, done, err)
			}
		}
		if want := max(1, (n+ChunkSize-1)/ChunkSize); count != want {
			t.Errorf("len %d: %d chunks, want %d", n, count, want)
		}
		if !done || !bytes.Equal(got, blob) {
			t.Errorf("len %d: reassembled %d bytes, done=%v", n, len(got), done)
		}
	}
	// A consumer may stop early.
	for range Chunks(big) {
		break
	}
}
