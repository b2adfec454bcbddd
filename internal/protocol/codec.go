package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"matrix/internal/geom"
	"matrix/internal/id"
)

// MaxFrameSize bounds a single message on the wire. State transfers chunk
// themselves below this; anything larger indicates corruption.
const MaxFrameSize = 4 << 20 // 4 MiB

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("protocol: frame exceeds MaxFrameSize")
	ErrBadType       = errors.New("protocol: unknown message type")
	ErrTruncated     = errors.New("protocol: truncated message body")
)

// mode is what a coder does with each field it is handed.
type mode uint8

const (
	appending mode = iota // encode the field onto b
	reading               // decode the field from b at n, bounds-checked
	counting              // add the field's wire size to n
)

// coder walks a message body field by field. Each message states its wire
// layout once, in its fields method, and the coder's mode makes that walk
// encode, decode or size the body. The Message interface passes the coder by
// value and returns it, because a pointer handed through an interface
// escapes: one allocation per frame and per batch element. Everything below
// the interface takes *coder.
type coder struct {
	mode mode
	b    []byte // appending: the output; reading: the body
	n    int    // reading: where the next field starts; counting: the size so far
	err  error  // reading: the first failure
	slab *Slab  // reading: where GameUpdates, Forwards and their payloads are carved
}

func (c *coder) fail() {
	if c.err == nil {
		c.err = ErrTruncated
	}
}

// take consumes the next n bytes of the body, or fails the read.
func (c *coder) take(n int) []byte {
	if c.err != nil || n > len(c.b)-c.n {
		c.fail()
		return nil
	}
	c.n += n
	return c.b[c.n-n : c.n]
}

func u8[T ~uint8](c *coder, v *T) {
	switch c.mode {
	case appending:
		c.b = append(c.b, uint8(*v))
	case reading:
		if b := c.take(1); b != nil {
			*v = T(b[0])
		}
	default:
		c.n++
	}
}

func u32[T ~uint32 | ~int32](c *coder, v *T) {
	switch c.mode {
	case appending:
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(*v))
	case reading:
		if b := c.take(4); b != nil {
			*v = T(binary.BigEndian.Uint32(b))
		}
	default:
		c.n += 4
	}
}

func u64[T ~uint64 | ~int64](c *coder, v *T) {
	switch c.mode {
	case appending:
		c.b = binary.BigEndian.AppendUint64(c.b, uint64(*v))
	case reading:
		if b := c.take(8); b != nil {
			*v = T(binary.BigEndian.Uint64(b))
		}
	default:
		c.n += 8
	}
}

func (c *coder) f64(v *float64) {
	switch c.mode {
	case appending:
		c.b = binary.BigEndian.AppendUint64(c.b, math.Float64bits(*v))
	case reading:
		if b := c.take(8); b != nil {
			*v = math.Float64frombits(binary.BigEndian.Uint64(b))
		}
	default:
		c.n += 8
	}
}

func (c *coder) boolean(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	u8(c, &b)
	if c.mode == reading {
		*v = b != 0
	}
}

func (c *coder) point(p *geom.Point) {
	c.f64(&p.X)
	c.f64(&p.Y)
}

func (c *coder) rect(r *geom.Rect) {
	c.f64(&r.MinX)
	c.f64(&r.MinY)
	c.f64(&r.MaxX)
	c.f64(&r.MaxY)
}

// str is a u32 length and the string's bytes; a read string is a copy.
func (c *coder) str(v *string) {
	n := uint32(len(*v))
	u32(c, &n)
	switch c.mode {
	case appending:
		c.b = append(c.b, *v...)
	case reading:
		*v = string(c.take(int(n)))
	default:
		c.n += len(*v)
	}
}

// bytes is a u32 length and the bytes; read bytes are copied out of the
// frame, carved from s (nil: their own allocation).
func (c *coder) bytes(v *[]byte, s *Slab) {
	n := uint32(len(*v))
	u32(c, &n)
	switch c.mode {
	case appending:
		c.b = append(c.b, *v...)
	case reading:
		if b := c.take(int(n)); c.err == nil {
			*v = s.clone(b)
		}
	default:
		c.n += len(*v)
	}
}

// trailing reports whether an optional trailing field is on the wire: when
// it is set, or, reading, when bytes remain. A frame without it is the
// encoding from before the field existed, and decodes to the zero field.
func (c *coder) trailing(set bool) bool {
	if c.mode == reading {
		return c.err == nil && c.n < len(c.b)
	}
	return set
}

// seq is a list's u32 count. It returns the list, whose elements the caller
// walks next; reading, it allocates the list first. least is the fewest
// bytes an element takes on the wire, so a count that claims more elements
// than the bytes left can hold fails here, and a hostile count cannot make
// the list much larger in memory than the frame it came in.
func seq[T any](c *coder, s *[]T, least int) []T {
	n := uint32(len(*s))
	u32(c, &n)
	if c.mode == reading {
		if c.err != nil || int(n) > (len(c.b)-c.n)/least {
			c.fail()
			return nil
		}
		*s = make([]T, n)
	}
	return *s
}

// The least wire size of each list element: its fixed fields, and a u32
// for each length or count (seq).
const (
	leastServerID = 4
	leastRegion   = 32 + 4         // bounds, peer count
	leastPeer     = 4 + 4 + 32     // server, address length, bounds
	leastObject   = 8 + 8 + 16 + 4 // object, client, position, payload length
)

func serverIDs(c *coder, s *[]id.ServerID) {
	for i := range seq(c, s, leastServerID) {
		u32(c, &(*s)[i])
	}
}

// done is a finished read's verdict: its first failure, or the bytes it
// left over.
func (c *coder) done(t MsgType) error {
	switch {
	case c.err != nil:
		return fmt.Errorf("decode %v: %w", t, c.err)
	case c.n != len(c.b):
		return fmt.Errorf("protocol: %d trailing bytes after %v", len(c.b)-c.n, t)
	}
	return nil
}

// --- the wire layout of every message ---

func (m *GameUpdate) fields(c coder) coder {
	u64(&c, &m.Client)
	u64(&c, &m.Seq)
	u8(&c, &m.Kind)
	c.point(&m.Origin)
	c.point(&m.Dest)
	u64(&c, &m.SentUnix)
	c.bytes(&m.Payload, c.slab)
	return c
}

func (m *Forward) fields(c coder) coder {
	u32(&c, &m.From)
	return m.Update.fields(c)
}

func (m *RegisterRequest) fields(c coder) coder {
	c.str(&m.Addr)
	c.f64(&m.Radius)
	return c
}

func (m *RegisterReply) fields(c coder) coder {
	u32(&c, &m.Server)
	c.rect(&m.Bounds)
	c.rect(&m.World)
	return c
}

func (m *LoadReport) fields(c coder) coder {
	u32(&c, &m.Server)
	u32(&c, &m.Clients)
	u32(&c, &m.QueueLen)
	return c
}

func (m *OverlapTable) fields(c coder) coder {
	u32(&c, &m.Server)
	u64(&c, &m.Version)
	c.rect(&m.Bounds)
	c.f64(&m.Radius)
	for i := range seq(&c, &m.Regions, leastRegion) {
		r := &m.Regions[i]
		c.rect(&r.Bounds)
		serverIDs(&c, &r.Peers)
	}
	for i := range seq(&c, &m.Peers, leastPeer) {
		m.Peers[i].fields(&c)
	}
	return c
}

func (p *PeerAddr) fields(c *coder) {
	u32(c, &p.Server)
	c.str(&p.Addr)
	c.rect(&p.Bounds)
}

func (m *SplitRequest) fields(c coder) coder {
	u32(&c, &m.Server)
	u32(&c, &m.Clients)
	return c
}

func (m *SplitReply) fields(c coder) coder {
	c.boolean(&m.Granted)
	u32(&c, &m.Child)
	c.str(&m.ChildAddr)
	c.rect(&m.Keep)
	c.rect(&m.Give)
	c.str(&m.Reason)
	if c.trailing(m.Corr != 0) {
		u64(&c, &m.Corr)
	}
	return c
}

func (m *ReclaimRequest) fields(c coder) coder {
	u32(&c, &m.Parent)
	u32(&c, &m.Child)
	return c
}

func (m *ReclaimReply) fields(c coder) coder {
	c.boolean(&m.Granted)
	c.rect(&m.Merged)
	c.str(&m.Reason)
	return c
}

func (m *Redirect) fields(c coder) coder {
	u64(&c, &m.Client)
	u32(&c, &m.NewOwner)
	c.str(&m.NewAddr)
	if c.trailing(m.Corr != 0) {
		u64(&c, &m.Corr)
	}
	return c
}

func (m *StateTransfer) fields(c coder) coder {
	u32(&c, &m.From)
	u32(&c, &m.To)
	c.boolean(&m.Final)
	for i := range seq(&c, &m.Objects, leastObject) {
		o := &m.Objects[i]
		u64(&c, &o.Object)
		u64(&c, &o.Client)
		c.point(&o.Pos)
		c.bytes(&o.Payload, nil)
	}
	return c
}

func (m *NonProximalQuery) fields(c coder) coder {
	u32(&c, &m.Server)
	c.point(&m.Point)
	c.f64(&m.Radius)
	return c
}

func (m *NonProximalReply) fields(c coder) coder {
	serverIDs(&c, &m.Servers)
	for i := range seq(&c, &m.Peers, leastPeer) {
		m.Peers[i].fields(&c)
	}
	return c
}

func (m *ClientHello) fields(c coder) coder {
	u64(&c, &m.Client)
	c.point(&m.Pos)
	if c.trailing(m.Token != "") {
		c.str(&m.Token)
	}
	return c
}

func (m *ClientWelcome) fields(c coder) coder {
	u32(&c, &m.Server)
	c.rect(&m.Bounds)
	return c
}

func (m *RangeUpdate) fields(c coder) coder {
	u32(&c, &m.Server)
	c.rect(&m.Bounds)
	for i := range seq(&c, &m.Handoff, leastPeer) {
		(*PeerAddr)(&m.Handoff[i]).fields(&c) // a handoff target is on the wire as a peer address
	}
	if c.mode == reading && len(m.Handoff) == 0 {
		m.Handoff = nil
	}
	if c.trailing(m.Corr != 0) {
		u64(&c, &m.Corr)
	}
	return c
}

func (m *Ack) fields(c coder) coder {
	u8(&c, &m.Of)
	return c
}

func (m *ErrorMsg) fields(c coder) coder {
	u8(&c, &m.Of)
	c.str(&m.Reason)
	return c
}

// fields of a Batch is a u32 count, then each element as a complete nested
// frame, so a reader can slice an element without understanding its body.
// Reading appends to m.Msgs: AppendUnmarshal decodes into its caller's slice.
func (m *Batch) fields(c coder) coder {
	n := uint32(len(m.Msgs))
	u32(&c, &n)
	switch c.mode {
	case appending:
		for _, sub := range m.Msgs {
			c.b = appendFrame(c.b, sub)
		}
		return c
	case counting:
		for _, sub := range m.Msgs {
			c.n += frameHeaderSize + sub.fields(coder{mode: counting}).n
		}
		return c
	}
	// Every element costs at least its 5-byte header, so a count claiming
	// more than the remaining bytes allow is corrupt — rejecting it here
	// also stops a hostile count from amplifying the preallocation below
	// beyond the frame's own size.
	if c.err != nil || int(n) > (len(c.b)-c.n)/frameHeaderSize {
		c.fail()
		return c
	}
	m.Msgs = slices.Grow(m.Msgs, int(n))
	for range n {
		start := c.n
		var ln uint32
		u32(&c, &ln)
		c.take(1 + int(ln))
		if c.err != nil {
			return c
		}
		if MsgType(c.b[start+4]) == TypeBatch {
			c.err = errors.New("protocol: nested batch")
			return c
		}
		sub, err := decode(c.b[start:c.n], c.slab)
		if err != nil {
			c.err = err
			return c
		}
		m.Msgs = append(m.Msgs, sub)
	}
	return c
}

func (m *SnapshotRequest) fields(c coder) coder { return c }

func (m *SnapshotData) fields(c coder) coder {
	c.bytes(&m.Blob, nil)
	c.boolean(&m.Final)
	return c
}

func (m *Heartbeat) fields(c coder) coder {
	u32(&c, &m.Server)
	u32(&c, &m.Clients)
	u32(&c, &m.QueueLen)
	u64(&c, &m.CheckpointTick)
	return c
}

func (m *DrainRequest) fields(c coder) coder {
	u32(&c, &m.Server)
	c.boolean(&m.Exit)
	if c.trailing(m.Corr != 0) {
		u64(&c, &m.Corr)
	}
	return c
}

func (m *DrainReply) fields(c coder) coder {
	c.boolean(&m.Granted)
	c.str(&m.Reason)
	return c
}

func (m *Adopt) fields(c coder) coder {
	u32(&c, &m.Victim)
	c.rect(&m.Bounds)
	c.bytes(&m.Blob, nil)
	c.boolean(&m.Final)
	if c.trailing(m.Corr != 0) {
		u64(&c, &m.Corr)
	}
	return c
}

// --- framing ---

// frameHeaderSize is the per-frame envelope: u32 body length + u8 type.
const frameHeaderSize = 5

// appendFrame appends m's frame, [u32 body length][u8 type][body], to dst.
func appendFrame(dst []byte, m Message) []byte {
	c := m.fields(coder{mode: appending, b: append(dst, 0, 0, 0, 0, uint8(m.MsgType()))})
	binary.BigEndian.PutUint32(c.b[len(dst):], uint32(len(c.b)-len(dst)-frameHeaderSize))
	return c.b
}

// AppendEncode encodes m into a self-describing frame
// ([u32 body length][u8 type][body]) appended to dst, and returns the
// extended slice. It is the allocation-lean sibling of Marshal: a caller
// that keeps reusing the returned slice (`buf = AppendEncode(buf[:0], m)`)
// encodes at zero allocations per message in steady state. On error dst is
// returned truncated to its original length.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	out := appendFrame(dst, m)
	if bodyLen := len(out) - len(dst) - frameHeaderSize; bodyLen > MaxFrameSize {
		return out[:len(dst)], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, bodyLen)
	}
	return out, nil
}

// Marshal encodes m into a freshly allocated self-describing frame:
// [u32 body length][u8 type][body]. Hot paths that can reuse a buffer
// should prefer AppendEncode.
func Marshal(m Message) ([]byte, error) {
	return AppendEncode(nil, m)
}

// AppendBatches encodes ms into as few Batch frames as MaxFrameSize
// allows, appended to dst. A single message is framed directly (wrapping
// one message in a Batch buys nothing), so SendBatch of one message costs
// exactly the same bytes as Send. frameEnds — appended to the ends
// argument, which callers may reuse like dst — holds the end offset of
// every produced frame within the returned slice, so a caller can split
// the buffer at frame boundaries without re-parsing.
// An element whose batch wrapping would overflow MaxFrameSize is emitted
// as a direct frame, so anything Send can deliver, a batch can too. On
// error dst is returned truncated to its original length.
func AppendBatches(dst []byte, ends []int, ms []Message) (out []byte, frameEnds []int, err error) {
	frameEnds = ends[:0]
	for _, m := range ms {
		if m == nil {
			return dst, frameEnds, errors.New("protocol: nil message in batch")
		}
		if _, nested := m.(*Batch); nested {
			return dst, frameEnds, errors.New("protocol: nested batch")
		}
	}
	switch len(ms) {
	case 0:
		return dst, frameEnds, nil
	case 1:
		out, err = AppendEncode(dst, ms[0])
		if err != nil {
			return dst[:len(dst):len(dst)], frameEnds, err
		}
		return out, append(frameEnds, len(out)), nil
	}
	orig := len(dst)
	out = dst
	frameStart := -1 // start of the open Batch frame, -1 when none
	countOff := 0    // offset of the open frame's element count
	count := uint32(0)
	finish := func() {
		binary.BigEndian.PutUint32(out[frameStart:], uint32(len(out)-frameStart-frameHeaderSize))
		binary.BigEndian.PutUint32(out[countOff:], count)
		frameEnds = append(frameEnds, len(out))
		frameStart = -1
	}
	for _, m := range ms {
		for {
			if frameStart < 0 {
				frameStart = len(out)
				out = append(out, 0, 0, 0, 0, uint8(TypeBatch))
				countOff = len(out)
				out = append(out, 0, 0, 0, 0)
				count = 0
			}
			mark := len(out)
			out = appendFrame(out, m)
			if len(out)-frameStart-frameHeaderSize <= MaxFrameSize {
				count++
				break
			}
			// The open frame overflowed. Drop the just-written element and
			// either close the frame and retry in a fresh one, or — if the
			// element overflows even an otherwise-empty batch (the wrapper
			// costs 9 bytes) — emit it as a direct frame: anything Send can
			// deliver, SendBatch must deliver too. AppendEncode enforces
			// the genuine MaxFrameSize limit on the element itself.
			if count == 0 {
				out = out[:frameStart]
				frameStart = -1
				direct, err := AppendEncode(out, m)
				if err != nil {
					// The byte buffer is truncated to its original
					// contents, so offsets of already-finished frames
					// must not survive either.
					return dst[:orig:orig], frameEnds[:0], err
				}
				out = direct
				frameEnds = append(frameEnds, len(out))
				break
			}
			out = out[:mark]
			finish()
		}
	}
	if frameStart >= 0 {
		finish()
	}
	return out, frameEnds, nil
}

// Unmarshal decodes one frame previously produced by Marshal, a Batch frame
// into a *Batch. It is AppendUnmarshal's one-message form without a Slab.
func Unmarshal(frame []byte) (Message, error) { return decode(frame, nil) }

// decode decodes one frame, carving from slab.
func decode(frame []byte, slab *Slab) (Message, error) {
	body, err := frameBody(frame)
	if err != nil {
		return nil, err
	}
	m, err := slab.newMessage(MsgType(frame[4]))
	if err != nil {
		return nil, err
	}
	c := m.fields(coder{mode: reading, b: body, slab: slab})
	if err := c.done(m.MsgType()); err != nil {
		return nil, err
	}
	return m, nil
}

// AppendUnmarshal decodes one frame and appends what it carries to dst: a
// Batch frame's elements, in order, or any other frame's one message.
// GameUpdates, Forwards and update payloads are carved from slab (nil: each
// gets its own allocation). A caller that reuses dst and slab decodes a
// batch of updates or forwards at a fraction of an allocation per element
// and none per frame. On error dst is returned as it was.
func AppendUnmarshal(dst []Message, frame []byte, slab *Slab) ([]Message, error) {
	if len(frame) < frameHeaderSize || MsgType(frame[4]) != TypeBatch {
		m, err := decode(frame, slab)
		if err != nil {
			return dst, err
		}
		return append(dst, m), nil
	}
	body, err := frameBody(frame)
	if err != nil {
		return dst, err
	}
	b := Batch{Msgs: dst}
	c := b.fields(coder{mode: reading, b: body, slab: slab})
	if err := c.done(TypeBatch); err != nil {
		return dst, err
	}
	return b.Msgs, nil
}

// frameBody checks a frame's envelope and returns its body.
func frameBody(frame []byte) ([]byte, error) {
	if len(frame) < frameHeaderSize {
		return nil, ErrTruncated
	}
	switch n := binary.BigEndian.Uint32(frame); {
	case n > MaxFrameSize:
		return nil, ErrFrameTooLarge
	case len(frame) != int(n)+frameHeaderSize:
		return nil, fmt.Errorf("%w: frame says %d body bytes, have %d", ErrTruncated, n, len(frame)-frameHeaderSize)
	}
	return frame[frameHeaderSize:], nil
}

// Size returns the number of bytes m occupies on the wire (envelope
// included). It counts and writes nothing; bandwidth accounting calls it
// once per forwarded packet.
func Size(m Message) (int, error) {
	n := m.fields(coder{mode: counting}).n
	if n > MaxFrameSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return frameHeaderSize + n, nil
}

// ReadFrame reads exactly one length-prefixed frame from r, reusing buf's
// storage when it is large enough. The returned slice is only valid until
// the next ReadFrame with the same buf; decoded messages never alias it
// (the decoder copies every byte and string field, update payloads into its
// Slab), so transports can recycle one buffer per connection, and with
// AppendUnmarshal one message slice too.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header goes into buf's own storage: a local array would escape
	// through the io.Reader, one allocation per frame.
	hdr := append(buf[:0], make([]byte, frameHeaderSize)...)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	total := int(n) + frameHeaderSize
	if cap(hdr) < total {
		hdr = append(make([]byte, 0, total), hdr...)
	}
	frame := hdr[:total]
	if _, err := io.ReadFull(r, frame[frameHeaderSize:]); err != nil {
		return nil, fmt.Errorf("protocol: body: %w", err)
	}
	return frame, nil
}
