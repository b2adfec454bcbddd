package protocol

import (
	"errors"
	"iter"
)

// MaxBlobSize bounds a blob reassembled from a chunked SnapshotData or
// Adopt stream, so that a sender that never sets Final cannot grow the
// receiver without bound. 4 × MaxFrameSize holds a node checkpoint of some
// 400 000 avatars at the ≈ 40 bytes each one spends; the largest the tests
// and the benchmark produce is 4 KiB (live-hotspot, 96 avatars).
const MaxBlobSize = 4 * MaxFrameSize

// ChunkSize is the most blob bytes one SnapshotData or Adopt frame carries:
// comfortably under MaxFrameSize, so a heavily loaded node's checkpoint
// still ships, dumps and adopts cleanly.
const ChunkSize = 1 << 20

// Chunks cuts blob into the pieces of one chunked stream, in order, each
// with whether it is the stream's last — what the sender puts in the
// frame's Final field and Reassembler.Add takes back. An empty blob is one
// empty final chunk, so a receiver always sees the stream end.
func Chunks(blob []byte) iter.Seq2[[]byte, bool] { return chunks(blob, ChunkSize) }

func chunks(blob []byte, size int) iter.Seq2[[]byte, bool] {
	return func(yield func([]byte, bool) bool) {
		for len(blob) > size {
			if !yield(blob[:size:size], false) {
				return
			}
			blob = blob[size:]
		}
		yield(blob, true)
	}
}

// ErrBlobTooLarge reports a chunked stream that outgrew MaxBlobSize.
var ErrBlobTooLarge = errors.New("protocol: chunked blob exceeds MaxBlobSize")

// Reassembler concatenates the chunks of one SnapshotData or Adopt stream at
// a time. The zero value is ready to use.
type Reassembler struct {
	buf      []byte
	dropping bool // the current stream overflowed; discard through its Final
}

// Add takes the next chunk. It returns the whole blob and true when final
// closes a stream that stayed within MaxBlobSize. A stream that outgrows it
// is dropped: the chunk that crosses the line returns ErrBlobTooLarge, once,
// and the rest of that stream, through its final chunk, is discarded in
// silence — the frames carry no stream identity, so only a final chunk can
// mark where the next blob begins.
func (r *Reassembler) Add(chunk []byte, final bool) ([]byte, bool, error) {
	if r.dropping {
		r.dropping = !final
		return nil, false, nil
	}
	if len(r.buf)+len(chunk) > MaxBlobSize {
		r.buf, r.dropping = nil, !final
		return nil, false, ErrBlobTooLarge
	}
	r.buf = append(r.buf, chunk...)
	if !final {
		return nil, false, nil
	}
	blob := r.buf
	r.buf = nil
	return blob, true, nil
}

// Len returns the bytes held for the stream in flight.
func (r *Reassembler) Len() int { return len(r.buf) }
