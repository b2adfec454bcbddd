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
