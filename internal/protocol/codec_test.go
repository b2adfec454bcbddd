package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/overlap"
)

// roundTrip marshals and unmarshals m, failing the test on any error.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	frame, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", m.MsgType(), err)
	}
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m.MsgType(), err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		&GameUpdate{
			Client:   42,
			Seq:      7,
			Kind:     KindMove,
			Origin:   geom.Pt(1.5, -2.25),
			Dest:     geom.Pt(3, 4),
			SentUnix: 123456789,
			Payload:  []byte("fire!"),
		},
		&GameUpdate{}, // zero payload
		&Forward{From: 3, Update: GameUpdate{Client: 1, Kind: KindAction, Payload: []byte{0, 1, 2}}},
		&RegisterRequest{Addr: "10.0.0.1:4000", Radius: 25.5},
		&RegisterReply{Server: 5, Bounds: geom.R(0, 0, 50, 100), World: geom.R(0, 0, 100, 100)},
		&LoadReport{Server: 2, Clients: 312, QueueLen: 98},
		&OverlapTable{
			Server:  1,
			Version: 9,
			Bounds:  geom.R(50, 0, 100, 100),
			Radius:  5,
			Regions: []TableRegion{
				{Bounds: geom.R(50, 0, 55, 100), Peers: []id.ServerID{2}},
				{Bounds: geom.R(50, 0, 55, 5), Peers: []id.ServerID{2, 3}},
			},
			Peers: []PeerAddr{{Server: 2, Addr: "a:1"}, {Server: 3, Addr: "b:2"}},
		},
		&OverlapTable{Server: 4, Version: 1, Bounds: geom.R(0, 0, 1, 1)}, // empty table
		&SplitRequest{Server: 1, Clients: 450},
		&SplitReply{Granted: true, Child: 9, ChildAddr: "c:3", Keep: geom.R(0, 0, 1, 1), Give: geom.R(1, 0, 2, 1)},
		&SplitReply{Granted: false, Reason: "pool exhausted"},
		&ReclaimRequest{Parent: 1, Child: 2},
		&ReclaimReply{Granted: true, Merged: geom.R(0, 0, 2, 2)},
		&ReclaimReply{Granted: false, Reason: "child too loaded"},
		&Redirect{Client: 77, NewOwner: 4, NewAddr: "d:4"},
		&StateTransfer{
			From: 1, To: 2, Final: true,
			Objects: []ObjectState{
				{Object: 1, Client: 9, Pos: geom.Pt(4, 5), Payload: []byte("hp=50")},
				{Object: 2, Pos: geom.Pt(6, 7)},
			},
		},
		&StateTransfer{From: 1, To: 2}, // empty transfer
		&NonProximalQuery{Server: 3, Point: geom.Pt(10, 20), Radius: 100},
		&NonProximalReply{Servers: []id.ServerID{1, 2, 3}, Peers: []PeerAddr{{Server: 1, Addr: "x:1"}}},
		&NonProximalReply{},
		&ClientHello{Client: 12, Pos: geom.Pt(1, 2)},
		&ClientHello{Client: 12, Pos: geom.Pt(1, 2), Token: "s3cret"},
		&ClientWelcome{Server: 2, Bounds: geom.R(0, 0, 10, 10)},
		&RangeUpdate{Server: 6, Bounds: geom.R(5, 5, 10, 10)},
		&RangeUpdate{
			Server: 6, Bounds: geom.R(5, 5, 10, 10),
			Handoff: []HandoffTarget{{Server: 7, Addr: "h:7", Bounds: geom.R(0, 0, 5, 10)}},
		},
		&Ack{Of: TypeSplitRequest},
		&ErrorMsg{Of: TypeReclaimRequest, Reason: "no such child"},
		&SnapshotRequest{},
		&SnapshotData{Blob: []byte(`{"Version":1}`)},
		&SnapshotData{Blob: []byte("chunk"), Final: true},
		&SnapshotData{Final: true}, // empty final chunk
		&Heartbeat{Server: 3, Clients: 12, QueueLen: 4, CheckpointTick: 99},
		&Heartbeat{},
		&DrainRequest{Server: 7, Exit: true},
		&DrainRequest{Server: 7},
		&DrainReply{Granted: true},
		&DrainReply{Granted: false, Reason: "no spare capacity"},
		&Adopt{Victim: 2, Bounds: geom.R(0, 0, 50, 100), Blob: []byte("blob"), Final: true},
		&Adopt{Victim: 2, Final: true}, // cold adoption: no checkpoint
	}
	for _, m := range msgs {
		m := m
		t.Run(m.MsgType().String(), func(t *testing.T) {
			got := roundTrip(t, m)
			if got.MsgType() != m.MsgType() {
				t.Fatalf("type changed: %v -> %v", m.MsgType(), got.MsgType())
			}
			if !reflect.DeepEqual(normalize(m), normalize(got)) {
				t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", m, got)
			}
		})
	}
}

// normalize maps nil and empty slices to a canonical form so DeepEqual
// tolerates the decoder's empty-slice representation choices.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *SnapshotData:
		c := *v
		if len(c.Blob) == 0 {
			c.Blob = nil
		}
		return &c
	case *Adopt:
		c := *v
		if len(c.Blob) == 0 {
			c.Blob = nil
		}
		return &c
	case *GameUpdate:
		c := *v
		if len(c.Payload) == 0 {
			c.Payload = nil
		}
		return &c
	case *Forward:
		c := *v
		if len(c.Update.Payload) == 0 {
			c.Update.Payload = nil
		}
		return &c
	case *OverlapTable:
		c := *v
		if len(c.Regions) == 0 {
			c.Regions = nil
		}
		if len(c.Peers) == 0 {
			c.Peers = nil
		}
		return &c
	case *StateTransfer:
		c := *v
		if len(c.Objects) == 0 {
			c.Objects = nil
		}
		for i := range c.Objects {
			if len(c.Objects[i].Payload) == 0 {
				c.Objects[i].Payload = nil
			}
		}
		return &c
	case *NonProximalReply:
		c := *v
		if len(c.Servers) == 0 {
			c.Servers = nil
		}
		if len(c.Peers) == 0 {
			c.Peers = nil
		}
		return &c
	default:
		return m
	}
}

// TestFrameStreamRoundTrip writes several Marshal'd frames back to back
// and reads them the way the transports do (ReadFrame into a recycled
// buffer, then Unmarshal); the stream's end must surface as an error.
func TestFrameStreamRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	want := []Message{
		&LoadReport{Server: 1, Clients: 10, QueueLen: 2},
		&Ack{Of: TypeLoadReport},
		&GameUpdate{Client: 5, Kind: KindChat, Payload: []byte("hello world")},
	}
	for _, m := range want {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		stream.Write(frame)
	}
	var buf []byte
	for i, w := range want {
		frame, err := ReadFrame(&stream, buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("Unmarshal %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, w)
		}
		buf = frame
	}
	if _, err := ReadFrame(&stream, buf); err == nil {
		t.Fatal("ReadFrame past end must fail")
	}
	// A stream cut inside a body is an error too, not a short frame.
	stream.Write([]byte{0, 0, 0, 3, uint8(TypeAck), 1})
	if _, err := ReadFrame(&stream, buf); err == nil {
		t.Fatal("ReadFrame of a truncated body must fail")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil frame: %v", err)
	}
	if _, err := Unmarshal([]byte{0, 0, 0, 0}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short frame: %v", err)
	}
	// Unknown type byte.
	frame := []byte{0, 0, 0, 0, 250}
	if _, err := Unmarshal(frame); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: %v", err)
	}
	// Declared body longer than actual.
	frame = []byte{0, 0, 0, 9, uint8(TypeAck), 1}
	if _, err := Unmarshal(frame); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: %v", err)
	}
	// Trailing garbage after a valid body.
	good, err := Marshal(&Ack{Of: TypeLoadReport})
	if err != nil {
		t.Fatal(err)
	}
	bad := append(good[:len(good):len(good)], 0xFF)
	bad[3]++ // fix length to include the garbage byte
	if _, err := Unmarshal(bad); err == nil {
		t.Error("trailing bytes must be rejected")
	}
}

func TestCorruptedBodiesNeverPanic(t *testing.T) {
	// Every message type decoded from random bytes must return an error or
	// a message, never panic or over-read.
	rnd := rand.New(rand.NewSource(7))
	for typ := TypeGameUpdate; typ < typeMax; typ++ {
		for trial := 0; trial < 200; trial++ {
			n := rnd.Intn(64)
			body := make([]byte, n)
			rnd.Read(body)
			frame := make([]byte, 0, 5+n)
			frame = append(frame, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
			frame = append(frame, uint8(typ))
			frame = append(frame, body...)
			_, _ = Unmarshal(frame) // must not panic
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	big := &GameUpdate{Payload: make([]byte, MaxFrameSize+1)}
	if _, err := Marshal(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized marshal: %v", err)
	}
	// A frame header claiming a huge body must be rejected by ReadFrame
	// before allocating.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, uint8(TypeAck)})
	if _, err := ReadFrame(&buf, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("huge header: %v", err)
	}
}

func TestGameUpdateQuickRoundTrip(t *testing.T) {
	f := func(client uint64, seq uint64, kind uint8, ox, oy, dx, dy float64, sent int64, payload []byte) bool {
		m := &GameUpdate{
			Client:   id.ClientID(client),
			Seq:      id.PacketSeq(seq),
			Kind:     UpdateKind(kind),
			Origin:   geom.Pt(ox, oy),
			Dest:     geom.Pt(dx, dy),
			SentUnix: sent,
			Payload:  payload,
		}
		frame, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(frame)
		if err != nil {
			return false
		}
		g, ok := got.(*GameUpdate)
		if !ok {
			return false
		}
		if g.Client != m.Client || g.Seq != m.Seq || g.Kind != m.Kind || g.SentUnix != m.SentUnix {
			return false
		}
		if len(g.Payload) != len(m.Payload) {
			return false
		}
		return bytes.Equal(g.Payload, m.Payload)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRegionsWireConversion(t *testing.T) {
	regions := []overlap.Region{
		{Bounds: geom.R(0, 0, 5, 100), Peers: overlap.NewSet(2, 3)},
		{Bounds: geom.R(0, 0, 5, 5), Peers: overlap.NewSet(4)},
	}
	wire := RegionsToWire(regions)
	back := RegionsFromWire(wire)
	if len(back) != len(regions) {
		t.Fatalf("got %d regions", len(back))
	}
	for i := range back {
		if !back[i].Bounds.Eq(regions[i].Bounds) {
			t.Errorf("region %d bounds %v != %v", i, back[i].Bounds, regions[i].Bounds)
		}
		if !slices.Equal(back[i].Peers, regions[i].Peers) {
			t.Errorf("region %d peers %v != %v", i, back[i].Peers, regions[i].Peers)
		}
	}
	// Wire form must not alias the original peer slices.
	wire[0].Peers[0] = 99
	if regions[0].Peers[0] == 99 {
		t.Error("RegionsToWire must copy peer slices")
	}
}

// TestMsgTypeStrings walks the msgTypes table: every wire type has a name
// and a constructor for a message of that very type (a hole or a row under
// the wrong index fails here), and nothing outside the table decodes.
func TestMsgTypeStrings(t *testing.T) {
	for typ := TypeGameUpdate; typ < typeMax; typ++ {
		if s := typ.String(); s == "" || s[0] == 'm' && s[1] == 's' && s[2] == 'g' {
			t.Errorf("type %d has no name: %q", uint8(typ), s)
		}
		if m, err := newMessage(typ); err != nil || m.MsgType() != typ {
			t.Errorf("newMessage(%v) = %T, %v", typ, m, err)
		}
	}
	if MsgType(0).String() != "msgtype(0)" {
		t.Errorf("zero type: %q", MsgType(0).String())
	}
	for _, typ := range []MsgType{0, typeMax, 255} {
		if m, err := newMessage(typ); !errors.Is(err, ErrBadType) || m != nil {
			t.Errorf("newMessage(%d) = %v, %v; want ErrBadType", uint8(typ), m, err)
		}
	}
}

func TestUpdateKindStrings(t *testing.T) {
	kinds := []UpdateKind{KindMove, KindAction, KindChat, KindSpawn, KindDespawn}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if UpdateKind(99).String() != "kind(99)" {
		t.Error("unknown kind String")
	}
}

// --- append-style encoding and batches ---

// sampleMessages returns one instance of every non-batch message type with
// non-trivial field values.
func sampleMessages() []Message {
	return []Message{
		&GameUpdate{Client: 42, Seq: 7, Kind: KindMove, Origin: geom.Pt(1.5, -2.25),
			Dest: geom.Pt(3, 4), SentUnix: 123456789, Payload: []byte("fire!")},
		&Forward{From: 3, Update: GameUpdate{Client: 1, Kind: KindAction, Payload: []byte{0, 1, 2}}},
		&RegisterRequest{Addr: "10.0.0.1:4000", Radius: 25.5},
		&RegisterReply{Server: 5, Bounds: geom.R(0, 0, 50, 100), World: geom.R(0, 0, 100, 100)},
		&LoadReport{Server: 2, Clients: 312, QueueLen: 98},
		&OverlapTable{Server: 1, Version: 9, Bounds: geom.R(50, 0, 100, 100), Radius: 5,
			Regions: []TableRegion{{Bounds: geom.R(50, 0, 55, 100), Peers: []id.ServerID{2}}},
			Peers:   []PeerAddr{{Server: 2, Addr: "a:1"}}},
		&SplitRequest{Server: 1, Clients: 450},
		&SplitReply{Granted: true, Child: 9, ChildAddr: "c:3", Keep: geom.R(0, 0, 1, 1), Give: geom.R(1, 0, 2, 1)},
		&ReclaimRequest{Parent: 1, Child: 2},
		&ReclaimReply{Granted: true, Merged: geom.R(0, 0, 2, 2)},
		&Redirect{Client: 77, NewOwner: 4, NewAddr: "d:4"},
		&StateTransfer{From: 1, To: 2, Final: true,
			Objects: []ObjectState{{Object: 1, Client: 9, Pos: geom.Pt(4, 5), Payload: []byte("hp=50")}}},
		&NonProximalQuery{Server: 3, Point: geom.Pt(10, 20), Radius: 100},
		&NonProximalReply{Servers: []id.ServerID{1, 2, 3}, Peers: []PeerAddr{{Server: 1, Addr: "x:1"}}},
		&ClientHello{Client: 12, Pos: geom.Pt(1, 2)},
		&ClientWelcome{Server: 2, Bounds: geom.R(0, 0, 10, 10)},
		&RangeUpdate{Server: 6, Bounds: geom.R(5, 5, 10, 10),
			Handoff: []HandoffTarget{{Server: 7, Addr: "h:7", Bounds: geom.R(0, 0, 5, 10)}}},
		&Ack{Of: TypeSplitRequest},
		&ErrorMsg{Of: TypeReclaimRequest, Reason: "no such child"},
		&SnapshotRequest{},
		&SnapshotData{Blob: []byte("state")},
		&Heartbeat{Server: 3, Clients: 12, QueueLen: 4, CheckpointTick: 99},
		&DrainRequest{Server: 7, Exit: true},
		&DrainReply{Granted: false, Reason: "no spare capacity"},
		&Adopt{Victim: 2, Bounds: geom.R(0, 0, 50, 100), Blob: []byte("blob"), Final: true},
	}
}

// TestAppendEncodeMatchesMarshal pins AppendEncode to the wire format
// Marshal produces, for every message type, including appending after
// existing bytes.
func TestAppendEncodeMatchesMarshal(t *testing.T) {
	for _, m := range sampleMessages() {
		want, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", m.MsgType(), err)
		}
		got, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("AppendEncode(%v): %v", m.MsgType(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: AppendEncode differs from Marshal", m.MsgType())
		}
		prefixed, err := AppendEncode([]byte("prefix"), m)
		if err != nil {
			t.Fatalf("AppendEncode prefixed (%v): %v", m.MsgType(), err)
		}
		if !bytes.Equal(prefixed, append([]byte("prefix"), want...)) {
			t.Errorf("%v: AppendEncode after prefix differs", m.MsgType())
		}
	}
}

// TestAppendEncodeOversizedRestoresDst verifies the error path truncates
// dst back to its original contents.
func TestAppendEncodeOversizedRestoresDst(t *testing.T) {
	big := &GameUpdate{Payload: make([]byte, MaxFrameSize+1)}
	dst := []byte("keep")
	out, err := AppendEncode(dst, big)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if string(out) != "keep" {
		t.Errorf("dst not restored: %q", out[:min(len(out), 16)])
	}
}

// TestAppendEncodeZeroAlloc is the codec allocation budget: steady-state
// encoding into a reused buffer must not allocate at all.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	u := &GameUpdate{Client: 42, Seq: 7, Kind: KindMove, Origin: geom.Pt(123.5, 456.25),
		Dest: geom.Pt(124, 457), SentUnix: 1234567890, Payload: make([]byte, 48)}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendEncode(buf[:0], u)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendEncode allocates %.1f/op, budget is 0", allocs)
	}
}

// TestSizeZeroAlloc pins Size (called once per forwarded packet) to zero
// steady-state allocations.
func TestSizeZeroAlloc(t *testing.T) {
	f := &Forward{From: 3, Update: GameUpdate{Client: 42, Kind: KindMove, Payload: make([]byte, 48)}}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Size(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Size allocates %.1f/op, budget is 0", allocs)
	}
}

// TestDecodeAllocs is the receive path's allocation budget: reading a frame
// into a reused buffer allocates nothing, and decoding allocates the messages
// and their strings and nothing per batch element — no header array, no
// coder — nor, decoded into a reused slice, per frame. Through a Slab the
// updates, forwards and their payloads cost one chunk each per slabMsgs.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	u := &GameUpdate{Client: 42, Seq: 7, Kind: KindMove, Origin: geom.Pt(1, 2), Dest: geom.Pt(3, 4)}
	single, err := Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	redirect, err := Marshal(&Redirect{Client: 42, NewOwner: 2, NewAddr: "127.0.0.1:7001"})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	batchOf := func(payload []byte) []byte {
		fwds := make([]Message, k)
		for i := range fwds {
			f := &Forward{From: 3, Update: *u}
			f.Update.Payload = payload
			fwds[i] = f
		}
		batch, _, err := AppendBatches(nil, nil, fwds)
		if err != nil {
			t.Fatal(err)
		}
		return batch
	}
	batch := batchOf(nil)
	for _, tc := range []struct {
		name  string
		frame []byte
		want  float64
	}{
		{"update", single, 1},     // the message
		{"redirect", redirect, 2}, // the message, its address
		{"batch", batch, k + 2},   // the Batch, its slice, k messages
	} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := Unmarshal(tc.frame); err != nil {
				t.Fatal(err)
			}
		}); got != tc.want {
			t.Errorf("Unmarshal(%s) allocates %.1f/op, budget is %.0f", tc.name, got, tc.want)
		}
	}
	dst := make([]Message, 0, k)
	decode := func(frame []byte, slab *Slab) {
		out, err := AppendUnmarshal(dst[:0], frame, slab)
		if err != nil || len(out) != k {
			t.Fatalf("AppendUnmarshal: %d messages, %v", len(out), err)
		}
	}
	if got := testing.AllocsPerRun(200, func() { decode(batch, nil) }); got != k {
		t.Errorf("AppendUnmarshal(batch) into a reused slice allocates %.1f/op, budget is %d (the messages)", got, k)
	}
	// One run is one chunk of Forwards, and with live-border's 128-byte
	// payloads one chunk of payload bytes too: two allocations for slabMsgs
	// forwards.
	carved := batchOf(make([]byte, slabBytes/slabMsgs))
	var slab Slab
	if got := testing.AllocsPerRun(200, func() {
		for range slabMsgs / k {
			decode(carved, &slab)
		}
	}); got != 2 {
		t.Errorf("AppendUnmarshal of %d forwards through a Slab allocates %.1f/op, budget is 2 (the chunks)", slabMsgs, got)
	}
	buf, src := make([]byte, 0, len(batch)), bytes.NewReader(nil)
	if got := testing.AllocsPerRun(200, func() {
		src.Reset(batch)
		if _, err := ReadFrame(src, buf); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ReadFrame into a reused buffer allocates %.1f/op, budget is 0", got)
	}
}

// TestSlabMessagesAreIndependent: what a Slab carves is never handed out
// twice. Three chunks' worth of updates and forwards with distinct payloads,
// all kept, are still what was sent after one payload is appended to.
func TestSlabMessagesAreIndependent(t *testing.T) {
	var slab Slab
	var sent, got []Message
	for i := range 3 * slabMsgs {
		u := GameUpdate{Client: id.ClientID(i), Seq: id.PacketSeq(i), Kind: KindMove, Payload: bytes.Repeat([]byte{byte(i)}, 1+i%97)}
		for _, m := range []Message{&u, &Forward{From: id.ServerID(i), Update: u}} {
			frame, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if got, err = AppendUnmarshal(got, frame, &slab); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, m)
		}
	}
	victim := got[len(got)/2].(*GameUpdate)
	victim.Payload = append(victim.Payload, bytes.Repeat([]byte{0xee}, 64)...)
	for i, m := range got {
		if m != Message(victim) && !reflect.DeepEqual(m, sent[i]) {
			t.Fatalf("message %d is %+v after another's payload grew, was sent as %+v", i, m, sent[i])
		}
	}
}

// TestBatchRoundTrip packs every message type into one Batch frame and
// decodes it back.
func TestBatchRoundTrip(t *testing.T) {
	in := sampleMessages()
	got := roundTrip(t, &Batch{Msgs: in})
	b, ok := got.(*Batch)
	if !ok {
		t.Fatalf("decoded %v", got.MsgType())
	}
	if len(b.Msgs) != len(in) {
		t.Fatalf("got %d messages, want %d", len(b.Msgs), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(normalize(in[i]), normalize(b.Msgs[i])) {
			t.Errorf("element %d (%v) mismatch:\n sent %#v\n got  %#v",
				i, in[i].MsgType(), in[i], b.Msgs[i])
		}
	}
}

// TestBatchRejectsNesting: batches must not nest, on encode or decode.
func TestBatchRejectsNesting(t *testing.T) {
	nested := &Batch{Msgs: []Message{&Batch{Msgs: []Message{&Ack{Of: TypeAck}}}}}
	frame, err := Marshal(nested) // encoding cannot fail; decoding must
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(frame); err == nil {
		t.Error("decoding a nested batch must fail")
	}
	if _, _, err := AppendBatches(nil, nil, []Message{&Batch{}}); err == nil {
		t.Error("AppendBatches must reject a Batch element")
	}
}

// TestAppendBatchesSingleMatchesSend: one message is framed directly, so a
// single-message batch costs exactly the same bytes as Marshal.
func TestAppendBatchesSingleMatchesSend(t *testing.T) {
	m := &LoadReport{Server: 2, Clients: 312, QueueLen: 98}
	want, _ := Marshal(m)
	out, ends, err := AppendBatches(nil, nil, []Message{m})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("single-message batch differs from Marshal")
	}
	if len(ends) != 1 || ends[0] != len(out) {
		t.Errorf("ends = %v, want [%d]", ends, len(out))
	}
}

// TestAppendBatchesMatchesBatchMarshal: the incremental encoder must
// produce exactly the frame Marshal(&Batch{...}) would.
func TestAppendBatchesMatchesBatchMarshal(t *testing.T) {
	ms := sampleMessages()
	want, err := Marshal(&Batch{Msgs: ms})
	if err != nil {
		t.Fatal(err)
	}
	out, ends, err := AppendBatches(nil, nil, ms)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Error("AppendBatches differs from Marshal(&Batch{...})")
	}
	if len(ends) != 1 || ends[0] != len(out) {
		t.Errorf("ends = %v, want one frame of %d bytes", ends, len(out))
	}
}

// TestAppendBatchesChunksAtMaxFrameSize: a message set too large for one
// frame is split into several valid Batch frames preserving order.
func TestAppendBatchesChunksAtMaxFrameSize(t *testing.T) {
	// Eleven ~1MiB payloads cannot fit one 4MiB frame.
	var ms []Message
	for i := 0; i < 11; i++ {
		p := make([]byte, 1<<20)
		p[0] = byte(i)
		ms = append(ms, &GameUpdate{Client: id.ClientID(i + 1), Payload: p})
	}
	out, ends, err := AppendBatches(nil, nil, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) < 2 {
		t.Fatalf("expected multiple frames, got %d", len(ends))
	}
	var decoded []Message
	start := 0
	for _, end := range ends {
		m, err := Unmarshal(out[start:end])
		if err != nil {
			t.Fatalf("frame ending at %d: %v", end, err)
		}
		b, ok := m.(*Batch)
		if !ok {
			t.Fatalf("frame ending at %d decoded as %v", end, m.MsgType())
		}
		decoded = append(decoded, b.Msgs...)
		start = end
	}
	if start != len(out) {
		t.Errorf("frames cover %d of %d bytes", start, len(out))
	}
	if len(decoded) != len(ms) {
		t.Fatalf("decoded %d messages, want %d", len(decoded), len(ms))
	}
	for i := range ms {
		want := ms[i].(*GameUpdate)
		got, ok := decoded[i].(*GameUpdate)
		if !ok || got.Client != want.Client || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("element %d corrupted by chunking", i)
		}
	}
}

// TestAppendBatchesElementTooLarge: an element that cannot fit any frame
// alone must error out with dst restored.
func TestAppendBatchesElementTooLarge(t *testing.T) {
	ms := []Message{
		&Ack{Of: TypeAck},
		&GameUpdate{Payload: make([]byte, MaxFrameSize+1)},
	}
	dst := []byte("keep")
	out, _, err := AppendBatches(dst, nil, ms)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if string(out) != "keep" {
		t.Error("dst not restored on error")
	}
}

// TestReadFrameReusesBuffer: ReadFrame must reuse a sufficient buffer and
// the decoded message must not alias it.
func TestReadFrameReusesBuffer(t *testing.T) {
	frame, _ := Marshal(&GameUpdate{Client: 1, Payload: []byte("payload")})
	var src bytes.Buffer
	src.Write(frame)
	buf := make([]byte, 0, 1024)
	got, err := ReadFrame(&src, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("ReadFrame did not reuse the provided buffer")
	}
	m, err := Unmarshal(got)
	if err != nil {
		t.Fatal(err)
	}
	u := m.(*GameUpdate)
	for i := range got {
		got[i] = 0xFF // clobber the frame; the message must be unaffected
	}
	if string(u.Payload) != "payload" {
		t.Error("decoded message aliases the frame buffer")
	}
}

// TestAppendBatchesHugeElementFallsBackToDirectFrame: an element whose
// body fits MaxFrameSize but whose batch wrapping would not must be sent
// as a direct frame, not rejected — SendBatch must deliver anything Send
// can.
func TestAppendBatchesHugeElementFallsBackToDirectFrame(t *testing.T) {
	// GameUpdate body is 61 bytes + payload; make the body exactly
	// MaxFrameSize so the 9-byte Batch wrapper pushes it over.
	huge := &GameUpdate{Client: 2, Payload: make([]byte, MaxFrameSize-61)}
	ms := []Message{
		&Ack{Of: TypeAck},
		huge,
		&Ack{Of: TypeError},
	}
	out, ends, err := AppendBatches(nil, nil, ms)
	if err != nil {
		t.Fatalf("AppendBatches: %v", err)
	}
	var decoded []Message
	start := 0
	for _, end := range ends {
		m, err := Unmarshal(out[start:end])
		if err != nil {
			t.Fatalf("frame ending at %d: %v", end, err)
		}
		if b, ok := m.(*Batch); ok {
			decoded = append(decoded, b.Msgs...)
		} else {
			decoded = append(decoded, m)
		}
		start = end
	}
	if len(decoded) != 3 {
		t.Fatalf("decoded %d messages, want 3", len(decoded))
	}
	if decoded[0].MsgType() != TypeAck || decoded[2].MsgType() != TypeAck {
		t.Errorf("order not preserved: %v, %v", decoded[0].MsgType(), decoded[2].MsgType())
	}
	g, ok := decoded[1].(*GameUpdate)
	if !ok || len(g.Payload) != len(huge.Payload) {
		t.Errorf("huge element corrupted")
	}
}

// TestBatchDecodeRejectsInflatedCount: a frame whose element count claims
// more elements than its bytes could hold must fail fast, before the
// count can amplify the preallocation.
func TestBatchDecodeRejectsInflatedCount(t *testing.T) {
	frame := []byte{0, 0, 0, 4, uint8(TypeBatch), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := Unmarshal(frame); !errors.Is(err, ErrTruncated) {
		t.Errorf("inflated count: %v", err)
	}
}

// TestHostileListCount: a list count that claims more elements than the
// bytes left in the frame can hold fails before the list is allocated.
// Decoding a 1 MiB frame whose count claims one element per byte allocates
// at most twice the frame, for every list on the wire (each element is 56
// bytes in memory, so allocating first would cost 56 MiB).
func TestHostileListCount(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		list    string
		m       Message // encodes the fields before the count
		countAt int     // the body offset of the count
	}{
		{"OverlapTable.Regions", &OverlapTable{}, 52},
		{"OverlapTable.Peers", &OverlapTable{}, 56},
		{"TableRegion.Peers", &OverlapTable{Regions: []TableRegion{{}}}, 88},
		{"StateTransfer.Objects", &StateTransfer{}, 9},
		{"NonProximalReply.Servers", &NonProximalReply{}, 0},
		{"NonProximalReply.Peers", &NonProximalReply{}, 4},
		{"RangeUpdate.Handoff", &RangeUpdate{}, 36},
	} {
		head, err := Marshal(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, frameHeaderSize+size)
		copy(frame, head[:frameHeaderSize+tc.countAt])
		binary.BigEndian.PutUint32(frame, size)
		binary.BigEndian.PutUint32(frame[frameHeaderSize+tc.countAt:], size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Unmarshal(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: a count of %d in a %d-byte body decodes with %v", tc.list, size, size, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(frame)) {
			t.Errorf("%s: a hostile count in a %d-byte frame allocates %d bytes", tc.list, len(frame), got)
		}
	}
}

// TestLeastElementSizes: the least wire size the decoder bounds each list's
// count by is exactly what a zero element takes, so no valid frame is
// refused for its count.
func TestLeastElementSizes(t *testing.T) {
	for _, tc := range []struct {
		list        string
		empty, once Message
		least       int
	}{
		{"OverlapTable.Regions", &OverlapTable{}, &OverlapTable{Regions: []TableRegion{{}}}, leastRegion},
		{"OverlapTable.Peers", &OverlapTable{}, &OverlapTable{Peers: []PeerAddr{{}}}, leastPeer},
		{"TableRegion.Peers", &OverlapTable{Regions: []TableRegion{{}}}, &OverlapTable{Regions: []TableRegion{{Peers: []id.ServerID{0}}}}, leastServerID},
		{"StateTransfer.Objects", &StateTransfer{}, &StateTransfer{Objects: []ObjectState{{}}}, leastObject},
		{"NonProximalReply.Servers", &NonProximalReply{}, &NonProximalReply{Servers: []id.ServerID{0}}, leastServerID},
		{"RangeUpdate.Handoff", &RangeUpdate{}, &RangeUpdate{Handoff: []HandoffTarget{{}}}, leastPeer},
	} {
		empty, _ := Size(tc.empty)
		once, _ := Size(tc.once)
		if once-empty != tc.least {
			t.Errorf("%s: a zero element takes %d bytes, the decoder assumes at least %d", tc.list, once-empty, tc.least)
		}
	}
}
