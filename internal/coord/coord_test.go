package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/workload"
)

// fixtureSweep is the same threshold×farm-size miniature the farm and
// CLI tests use: milliseconds per point, six points, a knee selector so
// the final verdict is part of the byte-identity check.
func fixtureSweep() farm.Sweep {
	cfg := workload.DefaultSynthetic(2, 0)
	cfg.NumFiles = 300
	cfg.MinSize = disk.MB
	cfg.MaxSize = 40 * disk.MB
	return farm.Sweep{
		Name: "coord-fixture",
		Base: farm.Spec{
			Name:     "coord-fixture",
			Workload: farm.SyntheticWorkload(cfg),
			Alloc:    farm.Packed(0.7),
		},
		Axes: []farm.Axis{
			{Kind: farm.AxisSpinThreshold, Values: []float64{30, 120, 600}},
			{Kind: farm.AxisFarmSize, Values: []float64{8, 12}},
		},
		Select: farm.Selector{Kind: farm.SelectKnee},
	}
}

// resultJSON canonicalizes a sweep result: equal bytes mean equal
// points, metrics, and selector verdict.
func resultJSON(t *testing.T, res *farm.SweepResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// directResult runs the reference single-process sweep.
func directResult(t *testing.T, sweep farm.Sweep, seed int64) string {
	t.Helper()
	res, err := farm.RunSweep(sweep, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, res)
}

// testCtx bounds every coordinator test so a protocol bug cannot hang
// the suite.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// startServer exposes a coordinator over real HTTP.
func startServer(t *testing.T, co *Coordinator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(co.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { co.Close() })
	return srv
}

// postJSON performs one raw protocol call (the tests' stand-in for a
// misbehaving or dead worker).
func postJSON(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestCoordinatorMatchesRunSweep is the core guarantee: two concurrent
// pull-based workers drain the queue and the assembled report is
// byte-identical to the single-process RunSweep of the same sweep and
// seed.
func TestCoordinatorMatchesRunSweep(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	co, err := New(sweep, 9, Config{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	var wg sync.WaitGroup
	points := make([]int, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats, err := Work(ctx, srv.URL, WorkerConfig{
				Name: fmt.Sprintf("w%d", i), Parallel: 2, Poll: 5 * time.Millisecond,
			})
			points[i], errs[i] = stats.Points, err
		}(i)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := points[0] + points[1]; got < sweep.NumPoints() {
		t.Errorf("workers computed %d points together, grid has %d", got, sweep.NumPoints())
	}
	if resultJSON(t, res) != want {
		t.Fatal("coordinator result differs from single-process RunSweep")
	}
	if st := co.Status(); st.Done != sweep.NumPoints() || st.Pending != 0 {
		t.Errorf("final status %+v", st)
	}
}

// TestWorkerDeathReleases pins the work-stealing path: a worker leases
// points and dies without submitting; after the lease expires a healthy
// worker steals them and the final report is still byte-identical.
func TestWorkerDeathReleases(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	co, err := New(sweep, 9, Config{LeaseTimeout: MinLeaseTimeout, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	// The "dead" worker: leases three points and is never heard from
	// again.
	var lease LeaseResponse
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "doomed", Max: 3}, &lease)
	if len(lease.Points) != 3 {
		t.Fatalf("dead worker leased %d points, want 3", len(lease.Points))
	}

	stats, err := Work(ctx, srv.URL, WorkerConfig{Name: "healthy", Parallel: 2, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// At least the whole grid: under a slow scheduler the healthy
	// worker's own short lease can expire mid-point and the re-leased
	// copy is recomputed — WorkStats counts that duplicate as real work.
	if stats.Points < sweep.NumPoints() {
		t.Errorf("healthy worker computed %d points, want at least the whole %d-point grid", stats.Points, sweep.NumPoints())
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("post-death result differs from single-process RunSweep")
	}
}

// TestDuplicateSubmit proves idempotency: submitting one point twice
// (two workers racing on a stolen lease) discards the second copy and
// leaves the final report untouched.
func TestDuplicateSubmit(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	co, err := New(sweep, 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	comp, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := comp.RunPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	var first, second SubmitResponse
	postJSON(t, srv.URL+"/v1/submit", SubmitRequest{Worker: "a", Point: pr}, &first)
	postJSON(t, srv.URL+"/v1/submit", SubmitRequest{Worker: "b", Point: pr}, &second)
	if first.Duplicate || !second.Duplicate {
		t.Errorf("duplicate flags: first=%+v second=%+v", first, second)
	}

	// A result that disagrees with the compiled grid is refused, not
	// merged.
	bad := pr
	bad.Label = "threshold=999s farm=8"
	if resp := postJSON(t, srv.URL+"/v1/submit", SubmitRequest{Worker: "evil", Point: bad}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("mislabeled submission got HTTP %d, want 422", resp.StatusCode)
	}

	if _, err := Work(ctx, srv.URL, WorkerConfig{Name: "w", Parallel: 2, Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("result with duplicate submissions differs from single-process RunSweep")
	}
}

// TestJournalRestart pins crash recovery: a coordinator journals three
// completed points and "crashes"; its successor on the same journal
// starts with them done, the pool finishes the rest, and the report is
// byte-identical.
func TestJournalRestart(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)
	journal := filepath.Join(t.TempDir(), "coord.journal")
	ctx := testCtx(t)

	co1, err := New(sweep, 9, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := startServer(t, co1)
	comp, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pr, err := comp.RunPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		postJSON(t, srv1.URL+"/v1/submit", SubmitRequest{Worker: "w", Point: pr}, nil)
	}
	// Crash: no graceful drain, just the journal left behind.
	srv1.Close()
	co1.Close()

	co2, err := New(sweep, 9, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if got := co2.Recovered(); got != 3 {
		t.Fatalf("restarted coordinator recovered %d points, want 3", got)
	}
	srv2 := startServer(t, co2)
	stats, err := Work(ctx, srv2.URL, WorkerConfig{Name: "w2", Parallel: 2, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != sweep.NumPoints()-3 {
		t.Errorf("worker after restart computed %d points, want %d", stats.Points, sweep.NumPoints()-3)
	}
	res, err := co2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("journal-recovered result differs from single-process RunSweep")
	}

	// A journal from another seed must be refused, not resumed.
	if _, err := New(sweep, 10, Config{JournalPath: journal}); err == nil ||
		!strings.Contains(err.Error(), "different sweep or seed") {
		t.Errorf("wrong-seed journal accepted: %v", err)
	}
}

// TestFullyJournaledGrid: a coordinator whose journal already covers
// the whole grid completes without any worker.
func TestFullyJournaledGrid(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)
	journal := filepath.Join(t.TempDir(), "coord.journal")

	comp, err := farm.Compile(sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := farm.OpenPointJournal(journal, sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < comp.NumPoints(); i++ {
		pr, err := comp.RunPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(pr); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	co, err := New(sweep, 9, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	res, err := co.Wait(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("fully journaled result differs from single-process RunSweep")
	}
}

// TestServeEndToEnd drives the one-call wrapper over a real listener:
// Serve on 127.0.0.1:0, a late-joining worker, and journal cleanup
// after success.
func TestServeEndToEnd(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)
	journal := filepath.Join(t.TempDir(), "coord.journal")
	ctx := testCtx(t)

	addrCh := make(chan string, 1)
	type served struct {
		res *farm.SweepResult
		err error
	}
	servedCh := make(chan served, 1)
	go func() {
		res, err := Serve(ctx, sweep, 9, "127.0.0.1:0", Config{
			JournalPath: journal,
			BatchSize:   2,
			OnListen:    func(a net.Addr) { addrCh <- a.String() },
		})
		servedCh <- served{res, err}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case got := <-servedCh:
		t.Fatalf("Serve exited before listening: res=%v err=%v", got.res, got.err)
	}
	if _, err := Work(ctx, "http://"+addr, WorkerConfig{Name: "w", Parallel: 2, Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	got := <-servedCh
	if got.err != nil {
		t.Fatal(got.err)
	}
	if resultJSON(t, got.res) != want {
		t.Fatal("Serve result differs from single-process RunSweep")
	}
	// Success leaves the journal on disk — until the caller persists
	// the report it is the drained grid's only durable copy (cmd/disksim
	// deletes it after printing). A restart on it drains instantly.
	co, err := New(sweep, 9, Config{JournalPath: journal})
	if err != nil {
		t.Fatalf("reopening journal after a successful run: %v", err)
	}
	if got, want := co.Recovered(), co.Status().Total; got != want {
		t.Errorf("journal after success recovered %d of %d points", got, want)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("journal-reassembled result differs from single-process RunSweep")
	}
	if err := co.RemoveJournal(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("RemoveJournal left the file: %v", err)
	}
}

// TestConfigValidation pins the loud-range-error satellite: out-of-range
// lease, batch, and parallelism values are rejected with the valid
// range named, not clamped.
func TestConfigValidation(t *testing.T) {
	sweep := fixtureSweep()
	if _, err := New(sweep, 1, Config{LeaseTimeout: -time.Second}); err == nil || !strings.Contains(err.Error(), "valid values") {
		t.Errorf("negative lease accepted: %v", err)
	}
	if _, err := New(sweep, 1, Config{BatchSize: -2}); err == nil || !strings.Contains(err.Error(), "valid values") {
		t.Errorf("negative batch accepted: %v", err)
	}
	if _, err := Work(context.Background(), "http://127.0.0.1:0", WorkerConfig{Parallel: -1}); err == nil || !strings.Contains(err.Error(), "valid values") {
		t.Errorf("negative parallelism accepted: %v", err)
	}
	custom := sweep
	custom.Axes = append(custom.Axes, farm.Axis{Kind: farm.AxisCustom, Labels: []string{"a"},
		Apply: func(*farm.Spec, int, []int) error { return nil }})
	if _, err := New(custom, 1, Config{}); err == nil || !strings.Contains(err.Error(), "custom axes") {
		t.Errorf("custom-axis sweep served: %v", err)
	}
}

// TestWorkerCancellation: a cancelled worker returns ctx.Err() and its
// abandoned leases re-queue for the survivors.
func TestWorkerCancellation(t *testing.T) {
	sweep := fixtureSweep()
	want := directResult(t, sweep, 9)

	co, err := New(sweep, 9, Config{LeaseTimeout: MinLeaseTimeout, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Work(cancelled, srv.URL, WorkerConfig{Name: "quitter", Parallel: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled worker returned %v, want context.Canceled", err)
	}

	if _, err := Work(ctx, srv.URL, WorkerConfig{Name: "finisher", Parallel: 2, Poll: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res) != want {
		t.Fatal("result after a cancelled worker differs from single-process RunSweep")
	}
}

// TestPoisonPointFailsRun pins the failure-propagation path: a point
// whose execution errors deterministically (an infeasible plan-only
// packing) must fail the run loudly — worker reports it, coordinator
// turns terminal, Wait returns the point error — instead of re-leasing
// the poison point until the pool drains and the coordinator waits
// forever.
func TestPoisonPointFailsRun(t *testing.T) {
	sweep := fixtureSweep()
	sweep.PlanOnly = true
	// L=0.0001 makes every file overflow the per-disk budget: Compile
	// succeeds, RunPoint fails — the poison shape.
	sweep.Axes = append(sweep.Axes, farm.Axis{Kind: farm.AxisCapL, Values: []float64{0.7, 0.0001}})

	co, err := New(sweep, 9, Config{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, co)
	ctx := testCtx(t)

	if _, err := Work(ctx, srv.URL, WorkerConfig{Name: "w", Parallel: 2, Poll: 5 * time.Millisecond}); err == nil {
		t.Error("worker on a poison grid returned nil error")
	}
	res, err := co.Wait(ctx)
	if err == nil || res != nil {
		t.Fatalf("Wait on a poison grid = (%v, %v), want the point error", res, err)
	}
	if !strings.Contains(err.Error(), "does not fit") || !strings.Contains(err.Error(), "L=0.0001") {
		t.Errorf("poison error does not name the point and cause: %v", err)
	}
}

// Every decoded protocol body is capped: an oversized lease,
// heartbeat, submit or fail body is refused with 413 before it is
// buffered, and a body under the cap is still served.
func TestOversizedBodyRejected(t *testing.T) {
	co, err := New(fixtureSweep(), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	co.maxBody = 1 << 10
	srv := startServer(t, co)
	huge := strings.Repeat("w", 2<<10)
	for path, body := range map[string]any{
		"/v1/lease":     LeaseRequest{Worker: huge, Max: 1},
		"/v1/heartbeat": HeartbeatRequest{Worker: huge},
		"/v1/submit":    SubmitRequest{Worker: huge},
		"/v1/fail":      FailRequest{Worker: huge, Error: huge},
	} {
		if resp := postJSON(t, srv.URL+path, body, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte worker name: status %d, want 413", path, len(huge), resp.StatusCode)
		}
	}
	var lease LeaseResponse
	if resp := postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "w", Max: 1}, &lease); resp.StatusCode != http.StatusOK {
		t.Fatalf("small lease request: status %d, want 200", resp.StatusCode)
	}
	if len(lease.Points) != 1 {
		t.Errorf("small lease request granted %d points, want 1", len(lease.Points))
	}
	if co.Status().Done != 0 {
		t.Error("a refused body changed the queue")
	}
}
