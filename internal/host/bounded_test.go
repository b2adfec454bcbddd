package host

import (
	"reflect"
	"slices"
	"testing"
)

// hostContainers lists every map, slice and chan a ServerHost or
// CoordinatorHost holds — directly, or through a struct of this package such
// as *egress — with the bound it is held to. The ones traffic can fill are the
// rows of docs/OPERATIONS.md's "Bounded queues".
var hostContainers = map[string]string{
	"ServerHost.peers":        "one connection per peer address the node sends to: the fleet",
	"ServerHost.dialing":      "one backlog per dial in flight, maxDialBacklog messages each",
	"ServerHost.inbound":      "one entry per accepted peer connection, removed when its pump exits",
	"ServerHost.clients":      "one connection per connected client",
	"ServerHost.evict":        "one entry per dropped client whose queued frames have not run; the tick drains it",
	"ServerHost.gone":         "client pumps exited since the last tick; emptied every tick",
	"ServerHost.ingress":      "maxIngress messages; beyond that dropped and counted",
	"ServerHost.ingressSpare": "the ingress funnel's other buffer, swapped every tick",
	"ServerHost.handled":      "one ingress message's fallout: one envelope per peer of a consistency set",
	"ServerHost.drainEvent":   "1 slot; a send that does not fit is skipped",
	"ServerHost.drainReply":   "1 slot; a reply that does not fit is skipped",
	"ServerHost.done":         "closed once, never sent on",
	"ServerHost.wake":         "1 slot; one pending signal covers every arrival",
	"ServerConfig.Restore":    "the caller's boot snapshot, fixed at start",
	"egress.peers":            "one batch per peer address, one tick's messages each",
	"egress.clients":          "one outbox per client connection, retired by evictDropped",
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
