// Package cmd_test builds the actual executables and drives a real
// multi-process session: one ism process, two exs processes (one with a
// deliberately skewed clock), a PICL trace on disk, and brisktrace over
// the result — the paper's deployment shape, end to end.
package cmd_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildAll compiles the binaries once into a shared temp dir.
func buildAll(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"ism", "exs", "relay", "brisktrace", "mknotice", "briskbench"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./"+tool)
		cmd.Dir = "." // cmd/ directory
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

// freePort grabs an ephemeral TCP port for the manager.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("ism never listened on %s", addr)
}

func TestMultiProcessSession(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process session in -short mode")
	}
	bin := buildAll(t)
	addr := freePort(t)
	trace := filepath.Join(t.TempDir(), "session.picl")

	ism := exec.Command(filepath.Join(bin, "ism"),
		"-addr", addr, "-sync", "100ms", "-picl", trace, "-T", "2000")
	var ismOut strings.Builder
	ism.Stdout = &ismOut
	ism.Stderr = &ismOut
	if err := ism.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if ism.Process != nil {
			ism.Process.Kill()
			ism.Wait()
		}
	}()
	waitListening(t, addr)

	// Two nodes: 300 events each at 3 kHz; node B starts 20 ms behind.
	runEXS := func(name string, extra ...string) *exec.Cmd {
		args := append([]string{
			"-manager", addr, "-name", name,
			"-rate", "3000", "-count", "300",
		}, extra...)
		c := exec.Command(filepath.Join(bin, "exs"), args...)
		c.Stdout = os.Stderr
		c.Stderr = os.Stderr
		return c
	}
	a := runEXS("proc-a")
	b := runEXS("proc-b", "-skew", "-20ms")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatalf("exs a: %v", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("exs b: %v", err)
	}

	// Give the manager time to flush the sorter, then stop it cleanly so
	// it flushes the PICL file.
	time.Sleep(500 * time.Millisecond)
	if err := ism.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ism.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("ism did not exit on SIGINT")
	}
	if !strings.Contains(ismOut.String(), "received=600") {
		t.Fatalf("ism final stats missing records:\n%s", ismOut.String())
	}

	// The trace must hold all 600 records, time-ordered, from 2 nodes.
	out, err := exec.Command(filepath.Join(bin, "brisktrace"), trace).CombinedOutput()
	if err != nil {
		t.Fatalf("brisktrace: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "records: 600") {
		t.Fatalf("trace record count wrong:\n%s", text)
	}
	// The adaptive time frame is reactive: the first records from the
	// 20 ms-skewed node may be emitted before the sorter has observed
	// their lateness and grown T, so a handful of early inversions is the
	// documented behaviour; a clean steady state keeps the total tiny.
	inv := -1
	fmt.Sscanf(text[strings.Index(text, "inversions:"):], "inversions: %d", &inv)
	if inv < 0 || inv > 5 {
		t.Fatalf("merged trace inversions = %d, want ≤5:\n%s", inv, text)
	}
	for _, node := range []string{"   1      ", "   2      "} {
		if !strings.Contains(text, node) {
			t.Fatalf("node attribution missing:\n%s", text)
		}
	}
}

// TestFederatedMultiProcessSession stacks the real executables into the
// hierarchical deployment: a root ism, one relay process fronting the
// regional fleet, and two exs processes attached to the relay. The root
// trace must hold every record, rebased onto the relay's node-id range,
// with the relay's wider root time frame keeping the merged order clean.
func TestFederatedMultiProcessSession(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process session in -short mode")
	}
	bin := buildAll(t)
	rootAddr := freePort(t)
	relayAddr := freePort(t)
	relayObs := freePort(t)
	trace := filepath.Join(t.TempDir(), "federated.picl")

	// The relay tier parks records for up to its own time frame before
	// forwarding, so the root's frame is widened per the composed-window
	// rule (2× the tier frame plus merge/flush slack).
	ism := exec.Command(filepath.Join(bin, "ism"),
		"-addr", rootAddr, "-sync", "100ms", "-picl", trace, "-T", "50000")
	var ismOut strings.Builder
	ism.Stdout = &ismOut
	ism.Stderr = &ismOut
	if err := ism.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if ism.Process != nil {
			ism.Process.Kill()
			ism.Wait()
		}
	}()
	waitListening(t, rootAddr)

	relay := exec.Command(filepath.Join(bin, "relay"),
		"-addr", relayAddr, "-parent", rootAddr, "-name", "region-a",
		"-node-base", "100", "-sync", "100ms", "-T", "2000", "-obs", relayObs)
	var relayOut strings.Builder
	relay.Stdout = &relayOut
	relay.Stderr = &relayOut
	if err := relay.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if relay.Process != nil {
			relay.Process.Kill()
			relay.Wait()
		}
	}()
	waitListening(t, relayAddr)

	runEXS := func(name string, extra ...string) *exec.Cmd {
		args := append([]string{
			"-manager", relayAddr, "-name", name,
			"-rate", "3000", "-count", "300",
		}, extra...)
		c := exec.Command(filepath.Join(bin, "exs"), args...)
		c.Stdout = os.Stderr
		c.Stderr = os.Stderr
		return c
	}
	a := runEXS("fed-a")
	b := runEXS("fed-b", "-skew", "-20ms")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatalf("exs a: %v", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("exs b: %v", err)
	}

	// The relay serves its Stats() as JSON on its -obs server.
	waitStats(t, relayObs, "Forwarded", 600)

	// Tier-ordered shutdown: the relay's SIGINT flushes its sorter through
	// the uplink and drains acks, then the root's SIGINT flushes the trace.
	time.Sleep(500 * time.Millisecond)
	stop := func(name string, cmd *exec.Cmd) {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not exit on SIGINT", name)
		}
	}
	stop("relay", relay)
	if !strings.Contains(relayOut.String(), "forwarded=600") {
		t.Fatalf("relay final stats missing records:\n%s", relayOut.String())
	}
	stop("ism", ism)
	if !strings.Contains(ismOut.String(), "received=600") {
		t.Fatalf("ism final stats missing records:\n%s", ismOut.String())
	}

	out, err := exec.Command(filepath.Join(bin, "brisktrace"), trace).CombinedOutput()
	if err != nil {
		t.Fatalf("brisktrace: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "records: 600") {
		t.Fatalf("trace record count wrong:\n%s", text)
	}
	inv := -1
	fmt.Sscanf(text[strings.Index(text, "inversions:"):], "inversions: %d", &inv)
	if inv < 0 || inv > 5 {
		t.Fatalf("merged trace inversions = %d, want ≤5:\n%s", inv, text)
	}
	// The relay rebases the fleet's session ids onto its -node-base range.
	for _, node := range []string{" 101      ", " 102      "} {
		if !strings.Contains(text, node) {
			t.Fatalf("rebased node attribution missing:\n%s", text)
		}
	}
}

func TestMknoticeCLI(t *testing.T) {
	bin := buildAll(t)
	out, err := exec.Command(filepath.Join(bin, "mknotice"),
		"-name", "Demo", "-fields", "i32,str").CombinedOutput()
	if err != nil {
		t.Fatalf("mknotice: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "func (s *Sensor) NoticeDemo(event uint8, a0 int32, a1 string) bool") {
		t.Fatalf("unexpected generator output:\n%s", out)
	}
	// Invalid spec exits nonzero.
	if _, err := exec.Command(filepath.Join(bin, "mknotice"),
		"-name", "X", "-fields", "bogus").CombinedOutput(); err == nil {
		t.Fatal("mknotice accepted a bogus field type")
	}
}

func TestISMRejectsBadFlags(t *testing.T) {
	bin := buildAll(t)
	out, err := exec.Command(filepath.Join(bin, "ism"),
		"-addr", "127.0.0.1:0", "-grow", "nonsense").CombinedOutput()
	if err == nil {
		t.Fatalf("ism accepted bad growth policy:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown growth policy") {
		t.Fatalf("unexpected error output: %s", out)
	}
}

// TestBriskbenchCLI smoke-runs the fast, deterministic experiments
// through the real evaluation binary.
func TestBriskbenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test in -short mode")
	}
	bin := buildAll(t)
	out, err := exec.Command(filepath.Join(bin, "briskbench"),
		"notice", "-iters", "5000").CombinedOutput()
	if err != nil {
		t.Fatalf("briskbench notice: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "E1: notice cost") {
		t.Fatalf("missing E1 table:\n%s", out)
	}
	out, err = exec.Command(filepath.Join(bin, "briskbench"), "ols").CombinedOutput()
	if err != nil {
		t.Fatalf("briskbench ols: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "grow-to-lateness") {
		t.Fatalf("missing E7 rows:\n%s", out)
	}
	out, err = exec.Command(filepath.Join(bin, "briskbench"), "clocksync").CombinedOutput()
	if err != nil {
		t.Fatalf("briskbench clocksync: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "quiet LAN") {
		t.Fatalf("missing E6 rows:\n%s", out)
	}
	// Unknown experiment exits nonzero with usage.
	if _, err := exec.Command(filepath.Join(bin, "briskbench"), "bogus").CombinedOutput(); err == nil {
		t.Fatal("briskbench accepted an unknown experiment")
	}
}

func TestMain(m *testing.M) {
	// Run from the cmd/ directory so relative package paths resolve.
	if _, err := os.Stat("ism"); err != nil {
		fmt.Fprintln(os.Stderr, "integration tests must run from cmd/")
	}
	os.Exit(m.Run())
}

// TestISMStatsHTTP checks the operational JSON statistics endpoint,
// /stats on the -obs server.
func TestISMStatsHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	bin := buildAll(t)
	addr := freePort(t)
	obsAddr := freePort(t)
	ism := exec.Command(filepath.Join(bin, "ism"),
		"-addr", addr, "-sync", "0", "-obs", obsAddr)
	if err := ism.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ism.Process.Kill()
		ism.Wait()
	}()
	waitListening(t, addr)
	waitListening(t, obsAddr)

	exs := exec.Command(filepath.Join(bin, "exs"),
		"-manager", addr, "-rate", "0", "-count", "50")
	if out, err := exs.CombinedOutput(); err != nil {
		t.Fatalf("exs: %v\n%s", err, out)
	}
	waitStats(t, obsAddr, "Received", 50)
}

// waitStats polls http://addr/stats until the JSON counter key reads
// want, failing the test after 10 s.
func waitStats(t *testing.T, addr, key string, want float64) {
	t.Helper()
	var last any
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/stats")
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var st map[string]any
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if last = st[key]; last == want {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("/stats on %s: %s = %v, want %v", addr, key, last, want)
}

// TestISMObservabilityHTTP drives a real ism process with -obs and checks
// the Prometheus exposition covers the acceptance surface: the sorter's
// window T, the causal matcher's tachyon counter, and the per-session
// batch/dedupe counters, plus a healthy /healthz.
func TestISMObservabilityHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	bin := buildAll(t)
	addr := freePort(t)
	obsAddr := freePort(t)
	ism := exec.Command(filepath.Join(bin, "ism"),
		"-addr", addr, "-sync", "0", "-obs", obsAddr)
	if err := ism.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ism.Process.Kill()
		ism.Wait()
	}()
	waitListening(t, addr)
	waitListening(t, obsAddr)

	exs := exec.Command(filepath.Join(bin, "exs"),
		"-manager", addr, "-rate", "0", "-count", "50")
	if out, err := exs.CombinedOutput(); err != nil {
		t.Fatalf("exs: %v\n%s", err, out)
	}

	resp, err := http.Get("http://" + obsAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}

	want := []string{
		"# TYPE brisk_ols_window_microseconds gauge",
		"brisk_cre_tachyons_total",
		"brisk_ism_session_batches_total{node=\"1\",session=\"",
		"brisk_ism_session_deduped_total{node=\"1\",session=\"",
		"brisk_ism_records_received_total 50",
	}
	deadline := time.Now().Add(10 * time.Second)
	var body string
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + obsAddr + "/metrics")
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
		ok := true
		for _, w := range want {
			if !strings.Contains(body, w) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("metrics output missing %q", w)
		}
	}
	t.Fatalf("exposition never converged; last body:\n%s", body)
}
