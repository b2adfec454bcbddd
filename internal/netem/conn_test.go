package netem

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// connPair dials an in-memory listener and returns the (wrapped) dialer
// side plus the raw accepted side.
func connPair(t *testing.T, link LinkConfig, seed int64) (client transport.Conn, server transport.Conn) {
	t.Helper()
	net := transport.NewMemNetwork()
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	client = WrapConn(raw, link, seed)
	server = <-accepted
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
		_ = l.Close()
	})
	return client, server
}

func update(i int) *protocol.GameUpdate {
	return &protocol.GameUpdate{
		Client: id.ClientID(i),
		Kind:   protocol.KindMove,
		Origin: geom.Pt(1, 2),
		Dest:   geom.Pt(3, 4),
	}
}

// recvN collects n messages or fails after a timeout.
func recvN(t *testing.T, c transport.Conn, n int) []protocol.Message {
	t.Helper()
	out := make(chan protocol.Message, n)
	go func() {
		for i := 0; i < n; i++ {
			m, err := c.Recv()
			if err != nil {
				return
			}
			out <- m
		}
	}()
	var got []protocol.Message
	deadline := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case m := <-out:
			got = append(got, m)
		case <-deadline:
			t.Fatalf("received %d of %d messages before timeout", len(got), n)
		}
	}
	return got
}

func TestWrapConnZeroConfigReturnsInner(t *testing.T) {
	net := transport.NewMemNetwork()
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if wrapped := WrapConn(raw, LinkConfig{}, 1); wrapped != raw {
		t.Fatal("zero link config must return the inner conn unchanged")
	}
	if WrapNetwork(net, LinkConfig{}, 1) != transport.Network(net) {
		t.Fatal("zero link config must return the inner network unchanged")
	}
}

func TestImpairedSendRecvAndBatch(t *testing.T) {
	// Delay-only impairment: everything arrives, later than sent, in order.
	client, server := connPair(t, LinkConfig{DelayMs: 30}, 7)
	start := time.Now()
	if err := client.Send(update(1)); err != nil {
		t.Fatal(err)
	}
	if err := client.SendBatch([]protocol.Message{update(2), update(3)}); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, server, 3)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("3 messages arrived after %v, want ≥ ~30ms of emulated delay", elapsed)
	}
	for i, m := range got {
		u, ok := m.(*protocol.GameUpdate)
		if !ok || u.Client != id.ClientID(i+1) {
			t.Fatalf("message %d = %#v, want update %d (order preserved without jitter)", i, m, i+1)
		}
	}
	st := client.(*Conn).Stats()
	if st.Passed != 3 || st.Lost != 0 || st.Delayed != 2 {
		t.Errorf("stats = %+v, want 3 passed / 0 lost / 2 delayed sends", st)
	}
}

func TestImpairedConnDropsDataKeepsControl(t *testing.T) {
	client, server := connPair(t, LinkConfig{Loss: 1}, 7)
	for i := 0; i < 5; i++ {
		if err := client.Send(update(i)); err != nil {
			t.Fatal(err)
		}
	}
	hello := &protocol.ClientHello{Client: 42, Pos: geom.Pt(1, 1)}
	if err := client.Send(hello); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, server, 1)
	if h, ok := got[0].(*protocol.ClientHello); !ok || h.Client != 42 {
		t.Fatalf("got %#v, want the hello (data packets all lost)", got[0])
	}
	st := client.(*Conn).Stats()
	if st.Lost != 5 || st.Passed != 1 {
		t.Errorf("stats = %+v, want 5 lost / 1 passed", st)
	}
	// A batch mixing data and control keeps only the control half.
	if err := client.SendBatch([]protocol.Message{update(9), hello, update(10)}); err != nil {
		t.Fatal(err)
	}
	got = recvN(t, server, 1)
	if _, ok := got[0].(*protocol.ClientHello); !ok {
		t.Fatalf("batch survivor = %#v, want hello", got[0])
	}
}

func TestJitterReorders(t *testing.T) {
	// 150ms of jitter over many sends: some later message should overtake
	// an earlier one.
	client, server := connPair(t, LinkConfig{JitterMs: 150}, 3)
	const n = 40
	for i := 0; i < n; i++ {
		if err := client.Send(update(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	got := recvN(t, server, n)
	reordered := false
	prev := id.ClientID(0)
	for _, m := range got {
		u := m.(*protocol.GameUpdate)
		if u.Client < prev {
			reordered = true
		}
		prev = u.Client
	}
	if !reordered {
		t.Error("150ms jitter over 40 sends produced no reordering")
	}
}

func TestWrapNetworkImpairsBothDirections(t *testing.T) {
	inner := transport.NewMemNetwork()
	nw := WrapNetwork(inner, LinkConfig{Loss: 1}, 5)
	l, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	srv := <-accepted
	defer srv.Close()
	if _, ok := dialer.(*Conn); !ok {
		t.Fatal("dialed conn not wrapped")
	}
	if _, ok := srv.(*Conn); !ok {
		t.Fatal("accepted conn not wrapped")
	}
	if err := dialer.Send(update(1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send(update(2)); err != nil {
		t.Fatal(err)
	}
	if st := dialer.(*Conn).Stats(); st.Lost != 1 {
		t.Errorf("dialer stats = %+v, want 1 lost", st)
	}
	if st := srv.(*Conn).Stats(); st.Lost != 1 {
		t.Errorf("server stats = %+v, want 1 lost", st)
	}
}

func TestCloseDiscardsQueuedSends(t *testing.T) {
	client, _ := connPair(t, LinkConfig{DelayMs: 5000}, 1)
	if err := client.Send(update(1)); err != nil {
		t.Fatal(err)
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- client.Close() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a queued delayed send")
	}
	if err := client.Send(update(2)); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

// TestSendIsSendBatchOfOne: Send(m) and SendBatch([m]) are one code path —
// the same loss draw, then the same delay draw — so twin connections with
// one seed pass and lose the same messages out of a thousand, count the
// same, and put the same bytes on the wire. Without delay the arrival order
// is the send order too; with jitter the two pumps race the wall clock, so
// only the set is compared.
func TestSendIsSendBatchOfOne(t *testing.T) {
	for name, link := range map[string]LinkConfig{
		"loss":        {Loss: 0.3},
		"loss+jitter": {Loss: 0.3, DelayMs: 1, JitterMs: 3},
	} {
		t.Run(name, func(t *testing.T) {
			single, singleSrv := connPair(t, link, 42)
			batch, batchSrv := connPair(t, link, 42)
			for i := 0; i < 1000; i++ {
				var m protocol.Message = update(i)
				if i%10 == 9 {
					m = &protocol.LoadReport{Clients: int32(i)} // control plane: never lost
				}
				if err := single.Send(m); err != nil {
					t.Fatal(err)
				}
				if err := batch.SendBatch([]protocol.Message{m}); err != nil {
					t.Fatal(err)
				}
			}
			st := single.(*Conn).Stats()
			if st2 := batch.(*Conn).Stats(); st != st2 {
				t.Fatalf("Send stats %+v, SendBatch stats %+v", st, st2)
			}
			if st.Lost == 0 || st.Passed+st.Lost != 1000 || link.DelayMs > 0 && st.Delayed != st.Passed {
				t.Fatalf("stats %+v do not describe 1000 sends on %+v", st, link)
			}
			got1 := recvN(t, singleSrv, int(st.Passed))
			got2 := recvN(t, batchSrv, int(st.Passed))
			if link.DelayMs > 0 {
				for _, got := range [][]protocol.Message{got1, got2} {
					sort.Slice(got, func(i, j int) bool { return order(got[i]) < order(got[j]) })
				}
			}
			if !reflect.DeepEqual(got1, got2) {
				t.Fatal("Send and SendBatch delivered different messages")
			}
			if a, b := single.BytesSent(), batch.BytesSent(); a != b || a != singleSrv.BytesReceived() || b != batchSrv.BytesReceived() {
				t.Fatalf("Send put %d bytes on the wire (%d received), SendBatch %d (%d received)",
					a, singleSrv.BytesReceived(), b, batchSrv.BytesReceived())
			}
		})
	}
}

// order recovers the send index the test put in a message.
func order(m protocol.Message) int {
	if lr, ok := m.(*protocol.LoadReport); ok {
		return int(lr.Clients)
	}
	return int(m.(*protocol.GameUpdate).Client)
}
