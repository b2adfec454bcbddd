package id

import (
	"sync"
	"testing"
)

func TestZeroValues(t *testing.T) {
	if None.Valid() {
		t.Error("None must not be valid")
	}
	if ServerID(3).Valid() != true {
		t.Error("nonzero ServerID must be valid")
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{None.String(), "server(none)"},
		{ServerID(7).String(), "server-7"},
		{ClientID(9).String(), "client-9"},
		{ObjectID(4).String(), "object-4"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q, want %q", tt.got, tt.want)
		}
	}
}

func TestGeneratorSequential(t *testing.T) {
	var g Generator
	if g.NextServer() != 1 || g.NextServer() != 2 {
		t.Error("server IDs must start at 1 and increment")
	}
	if g.NextClient() != 1 || g.NextClient() != 2 {
		t.Error("client IDs must start at 1 and increment")
	}
}

func TestGeneratorConcurrentUnique(t *testing.T) {
	var g Generator
	const goroutines = 8
	const perG = 200
	var mu sync.Mutex
	seen := make(map[ClientID]bool, goroutines*perG)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]ClientID, 0, perG)
			for j := 0; j < perG; j++ {
				local = append(local, g.NextClient())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate client id %v", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d unique ids, want %d", len(seen), goroutines*perG)
	}
}
