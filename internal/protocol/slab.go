package protocol

// Chunk sizes of a Slab: messages per chunk, and bytes per payload chunk.
const (
	slabMsgs  = 32
	slabBytes = 4 << 10
)

// Slab carves the hot messages — GameUpdates, Forwards and update payloads —
// from fixed-size chunks, and never reuses a carved slot. A carved message
// is a distinct object like any other: it lives as long as something refers
// to it, and the GC frees its chunk once nothing refers to any slot of it. So
// there is nothing to release, and a message that is kept alive pins at most
// the chunks it and its payload were carved from. The zero Slab is ready and
// allocates a chunk on its first carve; AppendUnmarshal with a nil *Slab
// allocates every message and payload on its own. A Slab is not safe for
// concurrent use.
type Slab struct {
	updates  []GameUpdate
	forwards []Forward
	payload  []byte
}

// Forward carves a zero Forward.
func (s *Slab) Forward() *Forward { return carve(&s.forwards) }

// carve hands out the first slot of *free, starting a new chunk when none is
// left.
func carve[T any](free *[]T) *T {
	if len(*free) == 0 {
		*free = make([]T, slabMsgs)
	}
	p := &(*free)[0]
	*free = (*free)[1:]
	return p
}

// newMessage is newMessage with GameUpdates and Forwards carved.
func (s *Slab) newMessage(t MsgType) (Message, error) {
	if s != nil {
		switch t {
		case TypeGameUpdate:
			return carve(&s.updates), nil
		case TypeForward:
			return carve(&s.forwards), nil
		}
	}
	return newMessage(t)
}

// clone copies b, carved as b[:n:n] so that an append to the copy cannot
// write into its neighbour. One that would take more than a quarter of a
// chunk gets its own allocation, as does every copy from a nil Slab.
func (s *Slab) clone(b []byte) []byte {
	n := len(b)
	if s == nil || n == 0 || n > slabBytes/4 {
		out := make([]byte, len(b))
		copy(out, b)
		return out
	}
	if len(s.payload) < n {
		s.payload = make([]byte, slabBytes)
	}
	out := s.payload[:n:n]
	s.payload = s.payload[n:]
	copy(out, b)
	return out
}
