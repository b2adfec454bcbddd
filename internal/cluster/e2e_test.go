package cluster

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"matrix"
)

// TestE2EKillNineOverTCP is the out-of-process version of the tentpole: it
// builds the real matrix-coordinator and matrix-server binaries, runs a
// two-server fleet over TCP, kill -9s the partition owner and asserts the
// fleet converges (spare adopts, metrics agree) and the client rejoins and
// keeps playing. Skipped under -short: it compiles binaries and forks
// processes.
func TestE2EKillNineOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level e2e in -short mode")
	}

	f := startE2EFleet(t)
	cl := f.dialClient(t)
	owner := cl.Server()

	// Let a post-join checkpoint ship, then kill -9 the owner.
	time.Sleep(300 * time.Millisecond)
	if err := f.owner.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = f.owner.Wait()

	waitFor(t, "spare adopted the world", func() bool {
		m := scrape(f.metricsAddr)
		return m["matrix_mc_deaths_total"] == 1 &&
			m["matrix_mc_adoptions_total"] == 1 &&
			m["matrix_mc_active_servers"] == 1
	})

	// The client redials the fallback and resumes against the heir.
	waitFor(t, "client rejoined the heir", func() bool {
		return cl.Server() != 0 && cl.Server() != owner
	})
	got := cl.Stats().Received
	waitFor(t, "client traffic flows again", func() bool {
		_ = cl.Move(matrix.Pt(501, 500))
		return cl.Stats().Received > got
	})
}

// TestE2EDrainExitEndsProcess drains the real binaries through the admin
// path (matrix-coordinator -drain N): a drain back to the spare pool leaves
// the process running as a spare — twice, once each way — and a
// drain-for-exit, the first server's second drain, ends it with status 0;
// every time the world moves to the other server and the client follows.
func TestE2EDrainExitEndsProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level e2e in -short mode")
	}
	f := startE2EFleet(t)
	cl := f.dialClient(t)
	first := cl.Server()
	adminDrain := func(target matrix.ServerID, extra ...string) {
		t.Helper()
		args := append([]string{"-addr", f.mcAddr, "-drain", strconv.Itoa(int(target))}, extra...)
		if out, err := exec.Command(f.coordBin, args...).CombinedOutput(); err != nil {
			t.Fatalf("admin drain of %v: %v\n%s", target, err, out)
		}
	}
	exited := func(cmd *exec.Cmd) <-chan error {
		c := make(chan error, 1)
		go func() { c <- cmd.Wait() }()
		return c
	}
	ownerExit, spareExit := exited(f.owner), exited(f.spare)

	// Back to the pool: the spare takes the world, the drained owner
	// re-registers as the new spare and its process lives on.
	adminDrain(first)
	waitFor(t, "client followed the world to the spare", func() bool {
		return cl.Server() != 0 && cl.Server() != first
	})
	second := cl.Server()
	waitFor(t, "drained owner back in the spare pool", func() bool {
		m := scrape(f.metricsAddr)
		return m["matrix_mc_drains_total"] == 1 && m["matrix_mc_active_servers"] == 1 && m["matrix_mc_spare_servers"] == 1
	})
	select {
	case err := <-ownerExit:
		t.Fatalf("a drain to the spare pool ended the process: %v", err)
	case <-time.After(500 * time.Millisecond):
	}

	// Back to the pool again, the other way: the old owner is re-adopted.
	adminDrain(second)
	waitFor(t, "client followed the world back", func() bool { return cl.Server() == first })
	waitFor(t, "drained spare back in the spare pool", func() bool {
		m := scrape(f.metricsAddr)
		return m["matrix_mc_drains_total"] == 2 && m["matrix_mc_active_servers"] == 1 && m["matrix_mc_spare_servers"] == 1
	})

	// For exit, and the second drain of that one process (it used to watch
	// for its first only): the world moves again, and this time it ends.
	adminDrain(first, "-drain-exit")
	select {
	case err := <-ownerExit:
		if err != nil {
			t.Fatalf("drain-exit: process ended with %v, want exit status 0", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain-exit: the retired process is still running after 5s")
	}
	select {
	case err := <-spareExit:
		t.Fatalf("a drain to the spare pool ended the process: %v", err)
	default:
	}
	waitFor(t, "the remaining server owns the world", func() bool {
		m := scrape(f.metricsAddr)
		return m["matrix_mc_drains_total"] == 3 && m["matrix_mc_active_servers"] == 1 && m["matrix_mc_spare_servers"] == 0
	})
	waitFor(t, "client followed the world to the spare", func() bool { return cl.Server() == second })
	got := cl.Stats().Received
	waitFor(t, "client traffic flows again", func() bool {
		_ = cl.Move(matrix.Pt(501, 500))
		return cl.Stats().Received > got
	})
}

// e2eFleet is a coordinator and two matrix-server processes over TCP: owner
// registered first and owns the whole world, spare is the warm spare.
type e2eFleet struct {
	coordBin, mcAddr, metricsAddr string
	ownerAddr, spareAddr          string
	owner, spare                  *exec.Cmd
}

// startE2EFleet builds the real binaries and boots the fleet; every process
// dies with the test.
func startE2EFleet(t *testing.T) *e2eFleet {
	t.Helper()
	bin := t.TempDir()
	f := &e2eFleet{
		coordBin:    filepath.Join(bin, "matrix-coordinator"),
		mcAddr:      freeAddr(t),
		metricsAddr: freeAddr(t),
		ownerAddr:   freeAddr(t),
		spareAddr:   freeAddr(t),
	}
	serverBin := filepath.Join(bin, "matrix-server")
	build(t, f.coordBin, "matrix/cmd/matrix-coordinator")
	build(t, serverBin, "matrix/cmd/matrix-server")

	startProc(t, f.coordBin,
		"-addr", f.mcAddr, "-status", "0",
		"-heartbeat-every", "50ms", "-lease-misses", "3",
		"-metrics-addr", f.metricsAddr)
	// The metrics endpoint comes up after the MC listener binds, so a
	// successful scrape (key present, not a zero default) means servers
	// can register.
	waitFor(t, "coordinator up", func() bool {
		_, ok := scrape(f.metricsAddr)["matrix_mc_server_conns"]
		return ok
	})

	serverArgs := func(addr string) []string {
		return []string{
			"-coordinator", f.mcAddr, "-addr", addr, "-status", "0",
			"-tick", "2ms", "-heartbeat-every", "25ms", "-checkpoint-every", "50ms",
		}
	}
	// Start the owner first and alone so it deterministically registers
	// first and owns the whole world; the second server is the warm spare.
	f.owner = startProc(t, serverBin, serverArgs(f.ownerAddr)...)
	waitFor(t, "owner registered", func() bool {
		return scrape(f.metricsAddr)["matrix_mc_active_servers"] == 1
	})
	f.spare = startProc(t, serverBin, serverArgs(f.spareAddr)...)
	waitFor(t, "spare registered", func() bool {
		return scrape(f.metricsAddr)["matrix_mc_spare_servers"] == 1
	})
	return f
}

// dialClient joins client 1 at the owner, with the spare as its fallback.
func (f *e2eFleet) dialClient(t *testing.T) *matrix.Client {
	t.Helper()
	cl, err := matrix.Dial(f.ownerAddr, 1, matrix.Pt(500, 500),
		matrix.WithNetwork(matrix.TCP()),
		matrix.WithFallbackAddrs(f.spareAddr),
		matrix.WithRedialEvery(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// build compiles a cmd package into dst with the module's own toolchain.
func build(t *testing.T, dst, pkg string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", dst, pkg)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
}

// repoRoot walks up from the package dir to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test dir")
		}
		dir = parent
	}
}

// startProc launches a binary and guarantees it dies with the test.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if testing.Verbose() {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	return cmd
}

// freeAddr grabs an ephemeral 127.0.0.1 port and releases it for the
// process under test (racy in principle, fine for a test).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// scrape fetches and parses one Prometheus exposition from addr (missing
// endpoint = empty map, so callers can poll through startup).
func scrape(addr string) map[string]float64 {
	out := make(map[string]float64)
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out
}

// waitFor polls cond for up to 10s (processes and TCP are slower than the
// in-memory fleet).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
