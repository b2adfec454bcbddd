package transport

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

// networks returns one instance of every Network implementation under a
// descriptive name, so every test runs against both.
func networks() map[string]Network {
	return map[string]Network{
		"mem": NewMemNetwork(),
		"tcp": TCPNetwork{},
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	for name, nw := range networks() {
		nw := nw
		t.Run(name, func(t *testing.T) {
			l, err := nw.Listen("")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			defer l.Close()

			type result struct {
				m   protocol.Message
				err error
			}
			got := make(chan result, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					got <- result{err: err}
					return
				}
				defer c.Close()
				m, err := c.Recv()
				got <- result{m: m, err: err}
			}()

			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			want := &protocol.LoadReport{Server: 3, Clients: 42, QueueLen: 7}
			if err := c.Send(want); err != nil {
				t.Fatalf("Send: %v", err)
			}
			r := <-got
			if r.err != nil {
				t.Fatalf("server side: %v", r.err)
			}
			lr, ok := r.m.(*protocol.LoadReport)
			if !ok {
				t.Fatalf("got %T", r.m)
			}
			if lr.Server != 3 || lr.Clients != 42 || lr.QueueLen != 7 {
				t.Fatalf("payload mismatch: %+v", lr)
			}
		})
	}
}

func TestBidirectionalAndOrdering(t *testing.T) {
	for name, nw := range networks() {
		nw := nw
		t.Run(name, func(t *testing.T) {
			l, err := nw.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			const n = 50
			errs := make(chan error, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				// Echo every message back.
				for i := 0; i < n; i++ {
					m, err := c.Recv()
					if err != nil {
						errs <- err
						return
					}
					if err := c.Send(m); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()

			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < n; i++ {
				if err := c.Send(&protocol.GameUpdate{Seq: id.PacketSeq(1000 + i)}); err != nil {
					t.Fatalf("Send %d: %v", i, err)
				}
			}
			for i := 0; i < n; i++ {
				m, err := c.Recv()
				if err != nil {
					t.Fatalf("Recv %d: %v", i, err)
				}
				gu, ok := m.(*protocol.GameUpdate)
				if !ok {
					t.Fatalf("Recv %d: %T", i, m)
				}
				if gu.Seq != id.PacketSeq(1000+i) {
					t.Fatalf("out of order: got %d at index %d", gu.Seq, i)
				}
			}
			if err := <-errs; err != nil {
				t.Fatalf("server: %v", err)
			}
		})
	}
}

func TestRecvAfterCloseFails(t *testing.T) {
	for name, nw := range networks() {
		nw := nw
		t.Run(name, func(t *testing.T) {
			l, err := nw.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			s := <-accepted
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := s.Recv()
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Recv after peer close must fail")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv did not observe close")
			}
			s.Close()
		})
	}
}

func TestDialUnknownAddr(t *testing.T) {
	mem := NewMemNetwork()
	if _, err := mem.Dial("mem:999"); !errors.Is(err, ErrNoSuchAddr) {
		t.Errorf("mem dial unknown: %v", err)
	}
	if _, err := (TCPNetwork{}).Dial("127.0.0.1:1"); err == nil {
		t.Error("tcp dial closed port should fail")
	}
}

func TestMemListenDuplicateAddr(t *testing.T) {
	mem := NewMemNetwork()
	l, err := mem.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := mem.Listen("svc"); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("duplicate listen: %v", err)
	}
}

func TestMemListenerCloseReleasesAddr(t *testing.T) {
	mem := NewMemNetwork()
	l, err := mem.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Dial("svc"); !errors.Is(err, ErrNoSuchAddr) {
		t.Errorf("dial after close: %v", err)
	}
	// Address is reusable.
	l2, err := mem.Listen("svc")
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	l2.Close()
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for name, nw := range networks() {
		nw := nw
		t.Run(name, func(t *testing.T) {
			l, err := nw.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			l.Close()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Accept must fail after Close")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Accept did not unblock")
			}
		})
	}
}

func TestByteAccounting(t *testing.T) {
	mem := NewMemNetwork()
	l, err := mem.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := mem.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-accepted
	defer s.Close()

	msg := &protocol.RangeUpdate{Server: 1, Bounds: geom.R(0, 0, 5, 5)}
	wantSize, err := protocol.Size(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := c.BytesSent(); got != uint64(wantSize) {
		t.Errorf("BytesSent = %d, want %d", got, wantSize)
	}
	if got := s.BytesReceived(); got != uint64(wantSize) {
		t.Errorf("BytesReceived = %d, want %d", got, wantSize)
	}
}

// TestSendRecvAllocs is the connection's steady-state allocation budget, the
// same on both networks: nothing per frame — Send encodes into the
// connection's buffer, Recv reads header and body into the connection's
// buffer and decodes, without a heap-allocated reader, into the connection's
// reused message slice — and the updates and forwards a frame carries are
// carved from the connection's slab, a chunk at a time.
func TestSendRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	update := &protocol.GameUpdate{Client: 1, Seq: 2, Kind: protocol.KindMove, Origin: geom.Pt(1, 1), Dest: geom.Pt(2, 1)}
	const k = 8
	batch := make([]protocol.Message, k)
	for i := range batch {
		batch[i] = &protocol.Forward{From: 3, Update: *update}
	}
	for name, nw := range networks() {
		t.Run(name, func(t *testing.T) {
			l, err := nw.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan Conn, 1)
			go func() {
				if c, err := l.Accept(); err == nil {
					accepted <- c
				}
			}()
			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s := <-accepted
			defer s.Close()
			recv := func(n int) {
				for i := 0; i < n; i++ {
					if _, err := s.Recv(); err != nil {
						t.Fatal(err)
					}
				}
			}
			single := func() {
				if err := c.Send(update); err != nil {
					t.Fatal(err)
				}
				recv(1)
			}
			batched := func() {
				if err := c.SendBatch(batch); err != nil {
					t.Fatal(err)
				}
				recv(k)
			}
			single()
			batched() // grow both connections' buffers to the batch
			// Enough runs to start many chunks: testing.AllocsPerRun would
			// truncate the fraction of a chunk each run pays.
			if got := allocsPerOp(1024, single); got > 0.1 {
				t.Errorf("Send + Recv of one update allocates %.3f/op, budget is 0.1 (one slot of a chunk of 32)", got)
			}
			if got := allocsPerOp(1024, batched); got > 0.5 {
				t.Errorf("SendBatch + Recv of %d forwards allocates %.3f/op, budget is 0.5 (%d slots of a chunk of 32)", k, got, k)
			}
		})
	}
}

// allocsPerOp is testing.AllocsPerRun without its truncation to a whole
// number: the mean heap allocations of runs calls of f, after one warm-up.
func allocsPerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestMemConcurrentSenders: 8 goroutines share one connection, mixing Send
// and SendBatch with payloads of different sizes. One Write per call under
// writeMu means no frame is ever interleaved with another: every message
// decodes, carries its sender's fill byte throughout, and each sender's
// sequence numbers arrive in order.
func TestMemConcurrentSenders(t *testing.T) {
	c, s := connPair(t, NewMemNetwork())
	const senders, per = 8, 100
	payload := func(sender, seq int) []byte {
		return bytes.Repeat([]byte{byte(sender)}, 1+(seq*37+sender*11)%700)
	}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j += 2 {
				mk := func(seq int) protocol.Message {
					return &protocol.GameUpdate{Client: id.ClientID(i), Seq: id.PacketSeq(seq), Payload: payload(i, seq)}
				}
				var err error
				if j%4 == 0 {
					err = c.SendBatch([]protocol.Message{mk(j), mk(j + 1)})
				} else if err = c.Send(mk(j)); err == nil {
					err = c.Send(mk(j + 1))
				}
				if err != nil {
					t.Errorf("sender %d: %v", i, err)
					return
				}
			}
		}()
	}
	next := make([]int, senders)
	for n := 0; n < senders*per; n++ {
		m, err := s.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", n, err)
		}
		gu, ok := m.(*protocol.GameUpdate)
		if !ok || int(gu.Client) >= senders {
			t.Fatalf("Recv %d: garbled message %#v", n, m)
		}
		i := int(gu.Client)
		if int(gu.Seq) != next[i] || !bytes.Equal(gu.Payload, payload(i, next[i])) {
			t.Fatalf("sender %d: got seq %d (%d payload bytes), want seq %d intact", i, gu.Seq, len(gu.Payload), next[i])
		}
		next[i]++
	}
	wg.Wait()
}

func TestProtocolSizeMatchesMarshal(t *testing.T) {
	msgs := []protocol.Message{
		&protocol.Ack{Of: protocol.TypeLoadReport},
		&protocol.GameUpdate{Payload: []byte("abcdef")},
		&protocol.RegisterRequest{Addr: "host:1", Radius: 3},
	}
	for _, m := range msgs {
		frame, err := protocol.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := protocol.Size(m)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(frame) {
			t.Errorf("%v: Size=%d, frame=%d", m.MsgType(), n, len(frame))
		}
	}
}

// connPair dials a fresh connection pair on nw.
func connPair(t *testing.T, nw Network) (client, server Conn) {
	t.Helper()
	l, err := nw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err = nw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// batchSample is a mixed per-tick batch: forwards plus a state transfer,
// what one peer receives in one tick.
func batchSample() []protocol.Message {
	return []protocol.Message{
		&protocol.Forward{From: 1, Update: protocol.GameUpdate{
			Client: 7, Seq: 1, Kind: protocol.KindMove,
			Origin: geom.Pt(1, 2), Dest: geom.Pt(3, 4), Payload: []byte("aa")}},
		&protocol.Forward{From: 1, Update: protocol.GameUpdate{
			Client: 8, Seq: 2, Kind: protocol.KindAction,
			Origin: geom.Pt(5, 6), Dest: geom.Pt(5, 6), Payload: []byte("bbb")}},
		&protocol.StateTransfer{From: 1, To: 2, Final: true,
			Objects: []protocol.ObjectState{{Client: 9, Pos: geom.Pt(7, 8)}}},
	}
}

// TestSendBatchRoundTrip sends one batch and expects Recv to unpack the
// messages transparently, in order, on both transports.
func TestSendBatchRoundTrip(t *testing.T) {
	for name, nw := range networks() {
		nw := nw
		t.Run(name, func(t *testing.T) {
			c, s := connPair(t, nw)
			want := batchSample()
			if err := c.SendBatch(want); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			// A follow-up single send must arrive after the batch contents.
			if err := c.Send(&protocol.Ack{Of: protocol.TypeForward}); err != nil {
				t.Fatalf("Send: %v", err)
			}
			for i, w := range want {
				got, err := s.Recv()
				if err != nil {
					t.Fatalf("Recv %d: %v", i, err)
				}
				if got.MsgType() != w.MsgType() {
					t.Fatalf("Recv %d: type %v, want %v", i, got.MsgType(), w.MsgType())
				}
				if f, ok := got.(*protocol.Forward); ok {
					if f.Update.Client != w.(*protocol.Forward).Update.Client {
						t.Fatalf("Recv %d: client %v", i, f.Update.Client)
					}
				}
			}
			tail, err := s.Recv()
			if err != nil {
				t.Fatalf("tail Recv: %v", err)
			}
			if tail.MsgType() != protocol.TypeAck {
				t.Fatalf("tail = %v, want ack", tail.MsgType())
			}
		})
	}
}

// TestSendBatchByteParity is the bandwidth-faithfulness contract: for the
// same batch, TCP and the in-memory transport must report identical
// BytesSent and BytesReceived (and a single-message batch must cost
// exactly what Send costs).
func TestSendBatchByteParity(t *testing.T) {
	counts := make(map[string][2]uint64)
	for name, nw := range networks() {
		nw := nw
		t.Run(name, func(t *testing.T) {
			c, s := connPair(t, nw)
			if err := c.SendBatch(batchSample()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(batchSample()); i++ {
				if _, err := s.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			counts[name] = [2]uint64{c.BytesSent(), s.BytesReceived()}
			if counts[name][0] != counts[name][1] {
				t.Errorf("%s: sent %d != received %d", name, counts[name][0], counts[name][1])
			}

			// Single-message parity with Send.
			c2, s2 := connPair(t, nw)
			single := &protocol.LoadReport{Server: 3, Clients: 10, QueueLen: 1}
			wantSize, err := protocol.Size(single)
			if err != nil {
				t.Fatal(err)
			}
			if err := c2.SendBatch([]protocol.Message{single}); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Recv(); err != nil {
				t.Fatal(err)
			}
			if got := c2.BytesSent(); got != uint64(wantSize) {
				t.Errorf("%s: single-message batch sent %d bytes, Send costs %d", name, got, wantSize)
			}
		})
	}
	if len(counts) == 2 && counts["mem"] != counts["tcp"] {
		t.Errorf("byte accounting diverged: mem %v, tcp %v", counts["mem"], counts["tcp"])
	}
}

// TestSendBatchEmpty is a no-op and must not confuse the stream.
func TestSendBatchEmpty(t *testing.T) {
	for name, nw := range networks() {
		nw := nw
		t.Run(name, func(t *testing.T) {
			c, s := connPair(t, nw)
			if err := c.SendBatch(nil); err != nil {
				t.Fatal(err)
			}
			if got := c.BytesSent(); got != 0 {
				t.Errorf("empty batch sent %d bytes", got)
			}
			if err := c.Send(&protocol.Ack{Of: protocol.TypeAck}); err != nil {
				t.Fatal(err)
			}
			m, err := s.Recv()
			if err != nil || m.MsgType() != protocol.TypeAck {
				t.Fatalf("got %v, %v", m, err)
			}
		})
	}
}

// TestMemSendIsSendBatchOfOne: on the in-memory transport Send(m) and
// SendBatch([m]) are one code path, so over a thousand messages of mixed
// types and sizes twin connections deliver the same messages and count the
// same bytes on both ends.
func TestMemSendIsSendBatchOfOne(t *testing.T) {
	nw := NewMemNetwork()
	c1, s1 := connPair(t, nw)
	c2, s2 := connPair(t, nw)
	samples := batchSample()
	for i := 0; i < 1000; i++ {
		var m protocol.Message = &protocol.GameUpdate{
			Client: id.ClientID(i), Seq: id.PacketSeq(i), Kind: protocol.KindMove,
			Origin: geom.Pt(float64(i), 2), Dest: geom.Pt(3, 4), Payload: make([]byte, i%97)}
		if i%4 == 3 {
			m = samples[i%len(samples)]
		}
		if err := c1.Send(m); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if err := c2.SendBatch([]protocol.Message{m}); err != nil {
			t.Fatalf("SendBatch %d: %v", i, err)
		}
		got1, err1 := s1.Recv()
		got2, err2 := s2.Recv()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got1, got2) || got1.MsgType() != m.MsgType() {
			t.Fatalf("message %d: Send delivered %#v (%v), SendBatch %#v (%v), sent %#v", i, got1, err1, got2, err2, m)
		}
		if c1.BytesSent() != c2.BytesSent() || s1.BytesReceived() != s2.BytesReceived() || c1.BytesSent() != s1.BytesReceived() {
			t.Fatalf("after message %d: Send side sent %d / received %d, SendBatch side %d / %d",
				i, c1.BytesSent(), s1.BytesReceived(), c2.BytesSent(), s2.BytesReceived())
		}
	}
}

// TestFramesBeforeCloseAreReceived is the stream contract every Mem-based
// suite leans on (a server's last frames before it hangs up still reach the
// peer): what was sent before Close is received, in order, and only then
// does Recv report ErrClosed.
func TestFramesBeforeCloseAreReceived(t *testing.T) {
	for name, nw := range networks() {
		t.Run(name, func(t *testing.T) {
			c, s := connPair(t, nw)
			if err := c.Send(&protocol.Ack{Of: protocol.TypeForward}); err != nil {
				t.Fatal(err)
			}
			if err := c.SendBatch(batchSample()); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1+len(batchSample()); i++ {
				if _, err := s.Recv(); err != nil {
					t.Fatalf("Recv %d of what was sent before Close: %v", i, err)
				}
			}
			if _, err := s.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv past the end = %v, want ErrClosed", err)
			}
		})
	}
}

// TestMemSendAfterCloseFails: whichever end closed, both ends' next Send
// reports ErrClosed and counts no bytes.
func TestMemSendAfterCloseFails(t *testing.T) {
	for _, closer := range []string{"own", "peer"} {
		t.Run(closer, func(t *testing.T) {
			c, s := connPair(t, NewMemNetwork())
			if closer == "own" {
				c.Close()
			} else {
				s.Close()
			}
			for _, end := range []Conn{c, s} {
				if err := end.Send(&protocol.Ack{}); !errors.Is(err, ErrClosed) {
					t.Errorf("Send = %v, want ErrClosed", err)
				}
				if err := end.SendBatch(batchSample()); !errors.Is(err, ErrClosed) {
					t.Errorf("SendBatch = %v, want ErrClosed", err)
				}
				if end.BytesSent() != 0 {
					t.Errorf("a failed send counted %d bytes", end.BytesSent())
				}
			}
		})
	}
}

// TestMemChunkedBatchWholeOrNothing: a batch MaxFrameSize splits into two
// frames is still one Write, so a Close racing the sender can never deliver
// one frame without the other: the reader sees exactly the messages of the
// batches whose SendBatch returned nil.
func TestMemChunkedBatchWholeOrNothing(t *testing.T) {
	batch := make([]protocol.Message, 3)
	for i := range batch {
		batch[i] = &protocol.GameUpdate{Seq: id.PacketSeq(i), Payload: make([]byte, protocol.MaxFrameSize*3/8)}
	}
	if _, ends, err := protocol.AppendBatches(nil, nil, batch); err != nil || len(ends) < 2 {
		t.Fatalf("the batch must need several frames: %d frames, %v", len(ends), err)
	}
	c, s := connPair(t, NewMemNetwork())
	sent := make(chan int, 1)
	go func() {
		n := 0
		for c.SendBatch(batch) == nil {
			n++
		}
		sent <- n
	}()
	got := 0
	for ; ; got++ {
		m, err := s.Recv()
		if err != nil {
			break
		}
		if want := id.PacketSeq(got % len(batch)); m.(*protocol.GameUpdate).Seq != want {
			t.Fatalf("message %d has seq %d, want %d", got, m.(*protocol.GameUpdate).Seq, want)
		}
		if got == 2*len(batch) {
			s.Close() // mid-stream: the sender is somewhere inside a later batch
		}
	}
	if n := <-sent; got != n*len(batch) {
		t.Fatalf("received %d messages, want all %d of the %d batches that were sent", got, n*len(batch), n)
	}
}

// TestLargeFrameRoundTrips: a frame far larger than any buffer the
// connection or the streams keep arrives intact.
func TestLargeFrameRoundTrips(t *testing.T) {
	for name, nw := range networks() {
		t.Run(name, func(t *testing.T) {
			c, s := connPair(t, nw)
			want := make([]byte, 16*maxRetainedBuf+13)
			for i := range want {
				want[i] = byte(i * 31)
			}
			errs := make(chan error, 1)
			go func() { errs <- c.Send(&protocol.GameUpdate{Payload: want}) }()
			m, err := s.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.(*protocol.GameUpdate).Payload, want) {
				t.Fatal("payload corrupted in transit")
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMemSendNeverBlocksOnIdleReader: the hosts' tick goroutines send to
// peers whose pumps may be busy, so an in-memory Send must not wait for the
// reader however much is outstanding; everything is there when it does read.
func TestMemSendNeverBlocksOnIdleReader(t *testing.T) {
	c, s := connPair(t, NewMemNetwork())
	const n = 2000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Send(&protocol.GameUpdate{Seq: id.PacketSeq(i), Payload: make([]byte, 1024)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked with nobody reading")
	}
	for i := 0; i < n; i++ {
		m, err := s.Recv()
		if err != nil || m.(*protocol.GameUpdate).Seq != id.PacketSeq(i) {
			t.Fatalf("Recv %d: %v, %v", i, m, err)
		}
	}
	if c.BytesSent() != s.BytesReceived() {
		t.Errorf("sent %d bytes, received %d", c.BytesSent(), s.BytesReceived())
	}
}
