package service

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// busyCfg is an auto-step topology that never idles (λ > 0).
func busyCfg(t *testing.T, name string) TopologyConfig {
	t.Helper()
	cfg := manualCfg(t, name)
	cfg.AutoStep = true
	cfg.Engine.Lambda = 0.2
	cfg.Tenants[0] = TenantQuota{Name: "gold"} // unlimited
	return cfg
}

// TestEngineTokenSharing drives one manual and one always-busy
// auto-step topology from several goroutines at once, mixing
// SubmitBatch, Stats, Advance and Snapshot, then closes the service
// mid-traffic. Every batch must balance (offered = admitted +
// quota_dropped), no Stats call on the busy topology may wait long
// behind its stepper, and every call after Close must fail with
// ErrStopped instead of hanging. Run it under -race.
func TestEngineTokenSharing(t *testing.T) {
	manual := manualCfg(t, "manual")
	manual.Tenants[0] = TenantQuota{Name: "gold"}
	s, err := New([]TopologyConfig{manual, busyCfg(t, "busy")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A Stats call waits at most for the step in progress and the calls
	// queued ahead of it; this bound only trips on starvation.
	const statsBound = 2 * time.Second
	const workers, rounds = 4, 40
	op := func(w, i int) error {
		topo := []string{"manual", "busy"}[(w+i)%2]
		switch i % 4 {
		case 0:
			res, err := s.SubmitBatch(topo, BatchRequest{Tenant: "gold", Random: 1 + (w+i)%7})
			if err != nil {
				return err
			}
			if res.Offered != res.Admitted+res.QuotaDropped || res.Offered == 0 {
				return fmt.Errorf("unbalanced batch: %+v", res)
			}
		case 1:
			start := time.Now()
			if _, err := s.Stats(topo); err != nil {
				return err
			}
			if wait := time.Since(start); topo == "busy" && wait > statsBound {
				return fmt.Errorf("stats on the busy topology took %v", wait)
			}
		case 2:
			if _, err := s.Advance(topo, 1+i%3); err != nil {
				return err
			}
		case 3:
			if i%8 == 3 {
				if _, err := s.Snapshot(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := op(w, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	busy, err := s.Stats("busy")
	if err != nil {
		t.Fatal(err)
	}
	if busy.Step == 0 {
		t.Error("the stepper never stepped")
	}

	// Close mid-traffic: every worker must come back with ErrStopped.
	started := make(chan struct{}, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			started <- struct{}{}
			for i := 0; ; i++ {
				if err := op(w, i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-started
	}
	s.Close()
	deadline := time.After(10 * time.Second)
	for w := 0; w < workers; w++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrStopped) {
				t.Errorf("call after Close: %v, want ErrStopped", err)
			}
		case <-deadline:
			t.Fatal("a call hung across Close")
		}
	}
}

// TestManualTopologyRunsNoGoroutine: manual topologies own no
// goroutine; an auto-step topology owns exactly its stepper, and Close
// waits for it to exit.
func TestManualTopologyRunsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var cfgs []TopologyConfig
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, manualCfg(t, fmt.Sprintf("m%d", i)))
	}
	s, err := New(cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitBatch("m0", BatchRequest{Tenant: "gold", Random: 3}); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("4 manual topologies: %d goroutines, %d before", n, base)
	}
	s.Close()

	s, err = New([]TopologyConfig{busyCfg(t, "busy")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base+1 {
		t.Errorf("one auto-step topology: %d goroutines, %d before", n, base)
	}
	s.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("after Close: %d goroutines, %d before", n, base)
	}
}

// TestStepErrorStopsTopology: a step error on the stepper stops the
// topology; later calls fail with ErrStopped wrapping the cause, and
// Close still returns.
func TestStepErrorStopsTopology(t *testing.T) {
	s, err := New([]TopologyConfig{busyCfg(t, "busy")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tp := s.topology("busy")
	// A finalized engine refuses to step.
	if err := tp.do(func() { tp.eng.Finalize() }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Stats("busy")
		if err != nil {
			if !errors.Is(err, ErrStopped) || !strings.Contains(err.Error(), "Finalize") {
				t.Fatalf("stats after a step error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the step error never stopped the topology")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanicStopsTopology: a panic under the engine token stops the
// topology instead of losing the token, so later calls and Close do
// not hang.
func TestPanicStopsTopology(t *testing.T) {
	s, err := New([]TopologyConfig{manualCfg(t, "bfly")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tp := s.topology("bfly")
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the re-raised panic", r)
			}
		}()
		_ = tp.do(func() { panic("boom") })
	}()
	if _, err := s.Stats("bfly"); !errors.Is(err, ErrStopped) || !strings.Contains(err.Error(), "boom") {
		t.Errorf("stats after a panic: %v", err)
	}
}

// TestAutoStepWakesOnSubmit: an idle auto-step topology (λ = 0) sleeps
// until a call wakes it, then drains the batch by itself, and goes back
// to sleep on every drain.
func TestAutoStepWakesOnSubmit(t *testing.T) {
	cfg := manualCfg(t, "auto")
	cfg.AutoStep = true
	s, err := New([]TopologyConfig{cfg}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 1; round <= 3; round++ {
		if _, err := s.SubmitBatch("auto", BatchRequest{Tenant: "gold", Random: 10}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, err := s.Stats("auto")
			if err != nil {
				t.Fatal(err)
			}
			if st.Delivered+st.Dropped == 10*round && st.Live == 0 && st.QueueDepth == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the stepper never drained the batch: %+v", round, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
