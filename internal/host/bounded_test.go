package host

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// hostContainers lists every map, slice and chan a ServerHost or
// CoordinatorHost holds — directly, or through a struct of this package such
// as *egress — with the bound it is held to. The ones traffic can fill are the
// rows of docs/OPERATIONS.md's "Bounded queues".
var hostContainers = map[string]string{
	"ServerHost.peers":        "one connection per peer address the node sends to: the fleet",
	"ServerHost.dialing":      "one backlog per dial in flight, maxDialBacklog messages each",
	"ServerHost.clients":      "one connection per connected client",
	"ServerHost.evict":        "one entry per dropped client whose queued frames have not run; the tick drains it",
	"ServerHost.ingress":      "maxIngress frames, beyond that dropped and counted; funnel calls, each a waiting caller's or a connection event (two per connection at most: its registration and its exit)",
	"ServerHost.ingressSpare": "the ingress funnel's other buffer, swapped every tick",
	"ServerHost.open":         "one entry per connection accepted or dialed and not yet closed by its owner",
	"ServerHost.handled":      "one ingress message's fallout: one envelope per peer of a consistency set",
	"ServerHost.drainEvent":   "1 slot; a send that does not fit is skipped",
	"ServerHost.drainReply":   "1 slot; a reply that does not fit is skipped",
	"ServerHost.done":         "closed once, never sent on",
	"ServerHost.wake":         "1 slot; one pending signal covers every arrival",
	"ServerConfig.Restore":    "the caller's boot snapshot, fixed at start",
	"ingressMsg.ran":          "closed once, never sent on",
	"egress.peers":            "one batch per peer address, one tick's messages each",
	"egress.clients":          "one outbox per client connection, retired by its pump's exit (dropClient)",
	"egress.free":             "retired outboxes, at most one per connection open at once",
	"clientOut.msgs":          "one tick's deliveries; at most maxRetainedOutbox slots kept between ticks",
	"CoordinatorHost.conns":   "one connection per registered server",
	"CoordinatorHost.done":    "closed once, never sent on",
}

// TestEveryHostContainerIsBounded fails when a host grows a map, slice or chan
// that hostContainers does not list with its bound, and when an entry there
// names nothing any more.
func TestEveryHostContainerIsBounded(t *testing.T) {
	found := containers(reflect.TypeFor[ServerHost](), reflect.TypeFor[CoordinatorHost]())
	for _, f := range found {
		if _, ok := hostContainers[f]; !ok {
			t.Errorf("%s is a map, slice or chan hostContainers does not list: say what bounds it", f)
		}
	}
	for f := range hostContainers {
		if !slices.Contains(found, f) {
			t.Errorf("hostContainers lists %s, which no host holds: drop the entry", f)
		}
	}
}

// TestServerHostLocksOnlyItsStatusAndFunnel pins the locks a ServerHost
// holds: the status it publishes and the ingress funnel. Everything else is
// the tick goroutine's, or atomic.
func TestServerHostLocksOnlyItsStatusAndFunnel(t *testing.T) {
	var locks []string
	typ := reflect.TypeFor[ServerHost]()
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type == reflect.TypeFor[sync.Mutex]() || f.Type == reflect.TypeFor[sync.RWMutex]() {
			locks = append(locks, f.Name)
		}
	}
	if want := []string{"statusMu", "ingressMu"}; !slices.Equal(locks, want) {
		t.Errorf("ServerHost locks %q, want exactly %q", locks, want)
	}
}

// TestContainersFollowsThisPackagesStructs plants a host-like struct.
func TestContainersFollowsThisPackagesStructs(t *testing.T) {
	type inner struct{ m map[int]int }
	type outer struct {
		q     []int
		in    *inner
		byKey map[string]*inner
		other reflect.Value // another package's struct: not followed
		n     int
	}
	got := containers(reflect.TypeFor[outer]())
	if want := []string{"outer.q", "inner.m", "outer.byKey"}; !slices.Equal(got, want) {
		t.Errorf("containers = %q, want %q", got, want)
	}
}

// containers names, as "Struct.field", every map, slice and chan field of the
// given structs and of the structs of this package they lead to through
// fields, pointers and elements, once each.
func containers(roots ...reflect.Type) []string {
	var found []string
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || typ.PkgPath() != reflect.TypeFor[ServerHost]().PkgPath() || seen[typ] {
			return
		}
		seen[typ] = true
		for i := range typ.NumField() {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Map, reflect.Slice, reflect.Chan:
				found = append(found, typ.Name()+"."+f.Name)
				walk(f.Type.Elem())
			default:
				walk(f.Type)
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return found
}
