package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

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

// buffer is an append-only encoder.
type buffer struct {
	b []byte
}

func (w *buffer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *buffer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *buffer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *buffer) i32(v int32)  { w.u32(uint32(v)) }
func (w *buffer) i64(v int64)  { w.u64(uint64(v)) }
func (w *buffer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *buffer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *buffer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}
func (w *buffer) str(v string) { w.bytes([]byte(v)) }
func (w *buffer) point(p geom.Point) {
	w.f64(p.X)
	w.f64(p.Y)
}
func (w *buffer) rect(r geom.Rect) {
	w.f64(r.MinX)
	w.f64(r.MinY)
	w.f64(r.MaxX)
	w.f64(r.MaxY)
}
func (w *buffer) serverID(s id.ServerID) { w.u32(uint32(s)) }
func (w *buffer) serverIDs(s []id.ServerID) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.serverID(v)
	}
}

// reader is a bounds-checked decoder over one frame. decodeBody takes it by
// value and returns where it stopped: a pointer handed through the Message
// interface escapes, one allocation per frame and per batch element. The
// GameUpdates and Forwards it decodes, batch elements included, and their
// payloads are carved from slab.
type reader struct {
	b    []byte
	off  int
	err  error
	slab *Slab
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i32() int32    { return int32(r.u32()) }
func (r *reader) i64() int64    { return int64(r.u64()) }
func (r *reader) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *reader) boolean() bool { return r.u8() != 0 }

// span returns the next length-prefixed field, aliasing the frame.
func (r *reader) span() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// bytes copies the next length-prefixed field, carved from s (nil: its own
// allocation).
func (r *reader) bytes(s *Slab) []byte {
	if b := r.span(); r.err == nil {
		return s.clone(b)
	}
	return nil
}

func (r *reader) str() string { return string(r.span()) }

func (r *reader) point() geom.Point {
	return geom.Point{X: r.f64(), Y: r.f64()}
}

func (r *reader) rect() geom.Rect {
	return geom.Rect{MinX: r.f64(), MinY: r.f64(), MaxX: r.f64(), MaxY: r.f64()}
}

func (r *reader) serverID() id.ServerID { return id.ServerID(r.u32()) }

func (r *reader) serverIDs() []id.ServerID {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.b) {
		r.fail()
		return nil
	}
	out := make([]id.ServerID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.serverID())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// --- per-message bodies ---

func (m *GameUpdate) encodeBody(b *buffer) {
	b.u64(uint64(m.Client))
	b.u64(uint64(m.Seq))
	b.u8(uint8(m.Kind))
	b.point(m.Origin)
	b.point(m.Dest)
	b.i64(m.SentUnix)
	b.bytes(m.Payload)
}

func (m *GameUpdate) decodeBody(r reader) (int, error) {
	m.Client = id.ClientID(r.u64())
	m.Seq = id.PacketSeq(r.u64())
	m.Kind = UpdateKind(r.u8())
	m.Origin = r.point()
	m.Dest = r.point()
	m.SentUnix = r.i64()
	m.Payload = r.bytes(r.slab)
	return r.off, r.err
}

func (m *Forward) encodeBody(b *buffer) {
	b.serverID(m.From)
	m.Update.encodeBody(b)
}

func (m *Forward) decodeBody(r reader) (int, error) {
	m.From = r.serverID()
	return m.Update.decodeBody(r)
}

func (m *RegisterRequest) encodeBody(b *buffer) {
	b.str(m.Addr)
	b.f64(m.Radius)
}

func (m *RegisterRequest) decodeBody(r reader) (int, error) {
	m.Addr = r.str()
	m.Radius = r.f64()
	return r.off, r.err
}

func (m *RegisterReply) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.rect(m.Bounds)
	b.rect(m.World)
}

func (m *RegisterReply) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Bounds = r.rect()
	m.World = r.rect()
	return r.off, r.err
}

func (m *LoadReport) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.i32(m.Clients)
	b.i32(m.QueueLen)
}

func (m *LoadReport) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Clients = r.i32()
	m.QueueLen = r.i32()
	return r.off, r.err
}

func (m *OverlapTable) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.u64(m.Version)
	b.rect(m.Bounds)
	b.f64(m.Radius)
	b.u32(uint32(len(m.Regions)))
	for _, reg := range m.Regions {
		b.rect(reg.Bounds)
		b.serverIDs(reg.Peers)
	}
	b.u32(uint32(len(m.Peers)))
	for _, p := range m.Peers {
		b.serverID(p.Server)
		b.str(p.Addr)
		b.rect(p.Bounds)
	}
}

func (m *OverlapTable) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Version = r.u64()
	m.Bounds = r.rect()
	m.Radius = r.f64()
	nRegions := int(r.u32())
	if r.err != nil || nRegions < 0 || nRegions > len(r.b) {
		r.fail()
		return r.off, r.err
	}
	m.Regions = make([]TableRegion, 0, nRegions)
	for i := 0; i < nRegions; i++ {
		reg := TableRegion{Bounds: r.rect(), Peers: r.serverIDs()}
		if r.err != nil {
			return r.off, r.err
		}
		m.Regions = append(m.Regions, reg)
	}
	nPeers := int(r.u32())
	if r.err != nil || nPeers < 0 || nPeers > len(r.b) {
		r.fail()
		return r.off, r.err
	}
	m.Peers = make([]PeerAddr, 0, nPeers)
	for i := 0; i < nPeers; i++ {
		p := PeerAddr{Server: r.serverID(), Addr: r.str(), Bounds: r.rect()}
		if r.err != nil {
			return r.off, r.err
		}
		m.Peers = append(m.Peers, p)
	}
	return r.off, r.err
}

func (m *SplitRequest) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.i32(m.Clients)
}

func (m *SplitRequest) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Clients = r.i32()
	return r.off, r.err
}

func (m *SplitReply) encodeBody(b *buffer) {
	b.boolean(m.Granted)
	b.serverID(m.Child)
	b.str(m.ChildAddr)
	b.rect(m.Keep)
	b.rect(m.Give)
	b.str(m.Reason)
	// Corr is an optional trailing field (the ClientHello.Token pattern):
	// omitted when zero so unstamped frames keep the historical encoding.
	if m.Corr != 0 {
		b.u64(m.Corr)
	}
}

func (m *SplitReply) decodeBody(r reader) (int, error) {
	m.Granted = r.boolean()
	m.Child = r.serverID()
	m.ChildAddr = r.str()
	m.Keep = r.rect()
	m.Give = r.rect()
	m.Reason = r.str()
	if r.err == nil && r.off < len(r.b) {
		m.Corr = r.u64()
	}
	return r.off, r.err
}

func (m *ReclaimRequest) encodeBody(b *buffer) {
	b.serverID(m.Parent)
	b.serverID(m.Child)
}

func (m *ReclaimRequest) decodeBody(r reader) (int, error) {
	m.Parent = r.serverID()
	m.Child = r.serverID()
	return r.off, r.err
}

func (m *ReclaimReply) encodeBody(b *buffer) {
	b.boolean(m.Granted)
	b.rect(m.Merged)
	b.str(m.Reason)
}

func (m *ReclaimReply) decodeBody(r reader) (int, error) {
	m.Granted = r.boolean()
	m.Merged = r.rect()
	m.Reason = r.str()
	return r.off, r.err
}

func (m *Redirect) encodeBody(b *buffer) {
	b.u64(uint64(m.Client))
	b.serverID(m.NewOwner)
	b.str(m.NewAddr)
	if m.Corr != 0 { // optional trailing field, see SplitReply
		b.u64(m.Corr)
	}
}

func (m *Redirect) decodeBody(r reader) (int, error) {
	m.Client = id.ClientID(r.u64())
	m.NewOwner = r.serverID()
	m.NewAddr = r.str()
	if r.err == nil && r.off < len(r.b) {
		m.Corr = r.u64()
	}
	return r.off, r.err
}

func (m *StateTransfer) encodeBody(b *buffer) {
	b.serverID(m.From)
	b.serverID(m.To)
	b.boolean(m.Final)
	b.u32(uint32(len(m.Objects)))
	for _, o := range m.Objects {
		b.u64(uint64(o.Object))
		b.u64(uint64(o.Client))
		b.point(o.Pos)
		b.bytes(o.Payload)
	}
}

func (m *StateTransfer) decodeBody(r reader) (int, error) {
	m.From = r.serverID()
	m.To = r.serverID()
	m.Final = r.boolean()
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.b) {
		r.fail()
		return r.off, r.err
	}
	m.Objects = make([]ObjectState, 0, n)
	for i := 0; i < n; i++ {
		o := ObjectState{
			Object: id.ObjectID(r.u64()),
			Client: id.ClientID(r.u64()),
			Pos:    r.point(),
		}
		o.Payload = r.bytes(nil)
		if r.err != nil {
			return r.off, r.err
		}
		m.Objects = append(m.Objects, o)
	}
	return r.off, r.err
}

func (m *NonProximalQuery) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.point(m.Point)
	b.f64(m.Radius)
}

func (m *NonProximalQuery) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Point = r.point()
	m.Radius = r.f64()
	return r.off, r.err
}

func (m *NonProximalReply) encodeBody(b *buffer) {
	b.serverIDs(m.Servers)
	b.u32(uint32(len(m.Peers)))
	for _, p := range m.Peers {
		b.serverID(p.Server)
		b.str(p.Addr)
		b.rect(p.Bounds)
	}
}

func (m *NonProximalReply) decodeBody(r reader) (int, error) {
	m.Servers = r.serverIDs()
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.b) {
		r.fail()
		return r.off, r.err
	}
	m.Peers = make([]PeerAddr, 0, n)
	for i := 0; i < n; i++ {
		p := PeerAddr{Server: r.serverID(), Addr: r.str(), Bounds: r.rect()}
		if r.err != nil {
			return r.off, r.err
		}
		m.Peers = append(m.Peers, p)
	}
	return r.off, r.err
}

func (m *ClientHello) encodeBody(b *buffer) {
	b.u64(uint64(m.Client))
	b.point(m.Pos)
	// The token is an optional trailing field: omitted entirely when empty
	// so token-free hellos keep the historical encoding (golden frames,
	// byte-parity and fingerprints unchanged), present as a length-prefixed
	// string otherwise. Unmarshal rejects trailing garbage, so the decoder
	// reads it exactly when bytes remain.
	if m.Token != "" {
		b.str(m.Token)
	}
}

func (m *ClientHello) decodeBody(r reader) (int, error) {
	m.Client = id.ClientID(r.u64())
	m.Pos = r.point()
	if r.err == nil && r.off < len(r.b) {
		m.Token = r.str()
	}
	return r.off, r.err
}

func (m *ClientWelcome) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.rect(m.Bounds)
}

func (m *ClientWelcome) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Bounds = r.rect()
	return r.off, r.err
}

func (m *RangeUpdate) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.rect(m.Bounds)
	b.u32(uint32(len(m.Handoff)))
	for _, h := range m.Handoff {
		b.serverID(h.Server)
		b.str(h.Addr)
		b.rect(h.Bounds)
	}
	if m.Corr != 0 { // optional trailing field, see SplitReply
		b.u64(m.Corr)
	}
}

func (m *RangeUpdate) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Bounds = r.rect()
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.b) {
		r.fail()
		return r.off, r.err
	}
	m.Handoff = make([]HandoffTarget, 0, n)
	for i := 0; i < n; i++ {
		h := HandoffTarget{Server: r.serverID(), Addr: r.str(), Bounds: r.rect()}
		if r.err != nil {
			return r.off, r.err
		}
		m.Handoff = append(m.Handoff, h)
	}
	if len(m.Handoff) == 0 {
		m.Handoff = nil
	}
	if r.err == nil && r.off < len(r.b) {
		m.Corr = r.u64()
	}
	return r.off, r.err
}

func (m *Ack) encodeBody(b *buffer) { b.u8(uint8(m.Of)) }

func (m *Ack) decodeBody(r reader) (int, error) {
	m.Of = MsgType(r.u8())
	return r.off, r.err
}

func (m *ErrorMsg) encodeBody(b *buffer) {
	b.u8(uint8(m.Of))
	b.str(m.Reason)
}

func (m *ErrorMsg) decodeBody(r reader) (int, error) {
	m.Of = MsgType(r.u8())
	m.Reason = r.str()
	return r.off, r.err
}

func (m *Batch) encodeBody(b *buffer) {
	b.u32(uint32(len(m.Msgs)))
	for _, sub := range m.Msgs {
		// Each element is a complete nested frame so the decoder can slice
		// without understanding the element's body.
		start := len(b.b)
		b.b = append(b.b, 0, 0, 0, 0, uint8(sub.MsgType()))
		sub.encodeBody(b)
		binary.BigEndian.PutUint32(b.b[start:], uint32(len(b.b)-start-frameHeaderSize))
	}
}

// decodeBody appends to m.Msgs: AppendUnmarshal decodes into its caller's slice.
func (m *Batch) decodeBody(r reader) (int, error) {
	n := int(r.u32())
	// Every element costs at least its 5-byte header, so a count claiming
	// more than the remaining bytes allow is corrupt — rejecting it here
	// also stops a hostile count from amplifying the preallocation below
	// beyond the frame's own size.
	if r.err != nil || n < 0 || n > (len(r.b)-r.off)/frameHeaderSize {
		r.fail()
		return r.off, r.err
	}
	m.Msgs = slices.Grow(m.Msgs, n)
	for i := 0; i < n; i++ {
		// Each element is a complete nested frame: [u32 length][u8 type][body].
		start := r.off
		ln := int(r.u32())
		if r.err != nil || ln < 0 || ln > len(r.b)-r.off-1 {
			r.fail()
			return r.off, r.err
		}
		r.off += 1 + ln
		if MsgType(r.b[start+4]) == TypeBatch {
			return 0, errors.New("protocol: nested batch")
		}
		sub, err := decode(r.b[start:r.off], r.slab)
		if err != nil {
			return 0, err
		}
		m.Msgs = append(m.Msgs, sub)
	}
	if r.off != len(r.b) {
		return 0, fmt.Errorf("protocol: %d trailing bytes after %d batch elements", len(r.b)-r.off, n)
	}
	return r.off, nil
}

func (m *SnapshotRequest) encodeBody(b *buffer) {}

func (m *SnapshotRequest) decodeBody(r reader) (int, error) { return r.off, r.err }

func (m *SnapshotData) encodeBody(b *buffer) {
	b.bytes(m.Blob)
	b.boolean(m.Final)
}

func (m *SnapshotData) decodeBody(r reader) (int, error) {
	m.Blob = r.bytes(nil)
	m.Final = r.boolean()
	return r.off, r.err
}

func (m *Heartbeat) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.i32(m.Clients)
	b.i32(m.QueueLen)
	b.u64(m.CheckpointTick)
}

func (m *Heartbeat) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Clients = r.i32()
	m.QueueLen = r.i32()
	m.CheckpointTick = r.u64()
	return r.off, r.err
}

func (m *DrainRequest) encodeBody(b *buffer) {
	b.serverID(m.Server)
	b.boolean(m.Exit)
	if m.Corr != 0 { // optional trailing field, see SplitReply
		b.u64(m.Corr)
	}
}

func (m *DrainRequest) decodeBody(r reader) (int, error) {
	m.Server = r.serverID()
	m.Exit = r.boolean()
	if r.err == nil && r.off < len(r.b) {
		m.Corr = r.u64()
	}
	return r.off, r.err
}

func (m *DrainReply) encodeBody(b *buffer) {
	b.boolean(m.Granted)
	b.str(m.Reason)
}

func (m *DrainReply) decodeBody(r reader) (int, error) {
	m.Granted = r.boolean()
	m.Reason = r.str()
	return r.off, r.err
}

func (m *Adopt) encodeBody(b *buffer) {
	b.serverID(m.Victim)
	b.rect(m.Bounds)
	b.bytes(m.Blob)
	b.boolean(m.Final)
	if m.Corr != 0 { // optional trailing field, see SplitReply
		b.u64(m.Corr)
	}
}

func (m *Adopt) decodeBody(r reader) (int, error) {
	m.Victim = r.serverID()
	m.Bounds = r.rect()
	m.Blob = r.bytes(nil)
	m.Final = r.boolean()
	if r.err == nil && r.off < len(r.b) {
		m.Corr = r.u64()
	}
	return r.off, r.err
}

// frameHeaderSize is the per-frame envelope: u32 body length + u8 type.
const frameHeaderSize = 5

// AppendEncode encodes m into a self-describing frame
// ([u32 body length][u8 type][body]) appended to dst, and returns the
// extended slice. It is the allocation-lean sibling of Marshal: a caller
// that keeps reusing the returned slice (`buf = AppendEncode(buf[:0], m)`)
// encodes at zero allocations per message in steady state. On error dst is
// returned truncated to its original length.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, uint8(m.MsgType()))
	dst = appendBody(dst, m)
	bodyLen := len(dst) - start - frameHeaderSize
	if bodyLen > MaxFrameSize {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, bodyLen)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(bodyLen))
	return dst, nil
}

// bufPool recycles buffer headers. encodeBody takes *buffer through an
// interface, so a stack-local buffer would escape and cost one allocation
// per encode; cycling the 3-word header through a pool keeps append-style
// encoding at zero steady-state allocations. The byte storage itself
// always belongs to the caller.
var bufPool = sync.Pool{New: func() any { return new(buffer) }}

// appendBody appends m's encoded body (no envelope) to dst.
func appendBody(dst []byte, m Message) []byte {
	w := bufPool.Get().(*buffer)
	w.b = dst
	m.encodeBody(w)
	dst = w.b
	w.b = nil // never retain the caller's storage
	bufPool.Put(w)
	return dst
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
			out = append(out, 0, 0, 0, 0, uint8(m.MsgType()))
			out = appendBody(out, m)
			subBody := len(out) - mark - frameHeaderSize
			binary.BigEndian.PutUint32(out[mark:], uint32(subBody))
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
	end, err := m.decodeBody(reader{b: body, slab: slab})
	if err != nil {
		return nil, fmt.Errorf("decode %v: %w", m.MsgType(), err)
	}
	if end != len(body) {
		return nil, fmt.Errorf("protocol: %d trailing bytes after %v", len(body)-end, m.MsgType())
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
	if _, err := b.decodeBody(reader{b: body, slab: slab}); err != nil {
		return dst, fmt.Errorf("decode %v: %w", TypeBatch, err)
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

// sizePool recycles scratch encode buffers so Size is allocation-free in
// steady state: the fast path calls it once per forwarded packet.
var sizePool = sync.Pool{New: func() any { return &buffer{b: make([]byte, 0, 512)} }}

// Size returns the number of bytes m occupies on the wire (envelope
// included) without allocating the frame twice. Bandwidth accounting in the
// evaluation harness uses it.
func Size(m Message) (int, error) {
	w := sizePool.Get().(*buffer)
	w.b = w.b[:0]
	m.encodeBody(w)
	n := len(w.b)
	if cap(w.b) <= 64<<10 { // don't let one huge state transfer pin memory
		sizePool.Put(w)
	}
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
