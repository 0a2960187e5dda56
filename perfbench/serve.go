package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/serve"
)

// The serve-resubmit traffic: one client in a closed loop, each job a
// 12-point sweep of experiments.QuickContext's 16-core machine with the
// same windows (1500 warmup + 4000 measured cycles). Most jobs resubmit one
// of the cached specs, whose points the store already holds; one job in
// freshEvery carries a fresh seed, so its points simulate and append to the
// store. On a 2-vCPU Xeon a fresh job takes about 300 times as long as a
// cached one (about 350 ms against 1.1 ms), so one fresh job in 1000 holds
// simulation to about a quarter of a round and serve work makes up the
// rest; and at 0.1% of the jobs the fresh ones stay out of the 1% tail, so
// job_p99_ms measures cached jobs. serve.fresh_points and
// serve.store_hit_ratio show the mix a run actually had. Every fresh job
// runs the first app, so its time per simulated cycle compares from round
// to round.
var (
	serveDesigns = []string{
		"Baseline", "Pr16", "Pr8", "Pr4", "Pr2", "Sh16",
		"Sh8", "Sh8+C2", "Sh8+C4", "Sh8+C2+Boost", "Sh8+C4+Boost", "MeshBase",
	}
	serveApps = []string{"C-BFS", "T-AlexNet", "P-GEMM", "R-SRAD"}
)

const (
	jobsPerRound   = 1000
	freshEvery     = 1000
	serveLineLimit = 1 << 20
)

func serveSpec(app string, seed uint64, designs []string) serve.SweepSpec {
	m := experiments.QuickContext().Base
	return serve.SweepSpec{
		App: app, Designs: designs,
		Cores: m.Cores, L2Slices: m.L2Slices, Channels: m.Channels,
		Warmup: int64(m.WarmupCycles), Cycles: int64(m.MeasureCycles),
		Seed: seed,
	}
}

// serveResubmit runs dcl1serve in-process behind a loopback listener.
// Set-up populates a store with the cached specs once. Each round then
// starts a daemon on a copy of that populated state (the start re-opens the
// store and replays the job log, the round's set-up sample) and runs the
// round's jobs against it, so every round meets the same server state. The
// fresh jobs are the round's simulate phases, so ns_per_sim_cycle here is
// their wall time per simulated core cycle. A job fails on a transport or
// point error or a wrong row count; a cached job fails when its rows differ
// from the first resubmission's, and one row of each round's first fresh
// job must equal a direct gpu.RunChecked of the same point.
func serveResubmit(b *bench) error {
	designs, apps, perRound, every := serveDesigns, serveApps, jobsPerRound, freshEvery
	if b.small {
		designs, apps, perRound, every = serveDesigns[:3], serveApps[:2], 6, 3
	}
	b.workers, b.shards = runtime.GOMAXPROCS(0), 1
	dir, err := os.MkdirTemp(b.outDir, "serve-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var cached []serve.SweepSpec
	for i, app := range apps {
		cached = append(cached, serveSpec(app, derive(b.seed, "app", i), designs))
	}
	populated := filepath.Join(dir, "populated")
	if err := os.Mkdir(populated, 0o755); err != nil {
		return err
	}
	d, err := startDaemon(b, nil, populated, b.workers)
	if err != nil {
		return err
	}
	for _, spec := range cached {
		if _, err := d.job(b, nil, spec); err != nil {
			d.stop()
			return fmt.Errorf("populate the store: %w", err)
		}
	}
	if err := d.stop(); err != nil {
		return err
	}

	type sampled struct {
		spec serve.SweepSpec
		row  serve.PointResult
	}
	var samples []sampled
	var hitRatio, freshPoints []float64
	m := experiments.QuickContext().Base
	pointCycles := int64(m.WarmupCycles + m.MeasureCycles)
	err = b.rounds(nil, func(r *round) error {
		state := filepath.Join(dir, fmt.Sprintf("round%d", r.index))
		if err := copyDir(populated, state); err != nil {
			return err
		}
		defer os.RemoveAll(state)
		t0 := time.Now()
		d, err := startDaemon(b, r, state, b.workers)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0))
		firstFresh := true
		for i := 0; i < perRound; i++ {
			n := r.index*perRound + i
			fresh := n%every == every-1
			spec := cached[i%len(cached)]
			var rows []serve.PointResult
			job := func() error {
				t0 := time.Now()
				var err error
				rows, err = d.job(b, r, spec)
				r.jobs = append(r.jobs, time.Since(t0))
				return err
			}
			var err error
			if fresh {
				spec = serveSpec(apps[0], derive(b.seed, "fresh", n), designs)
				err = r.simulate(func() (int64, error) {
					return int64(len(designs)) * pointCycles, job()
				})
			} else {
				err = job()
			}
			b.attempted++
			if err != nil {
				b.fail("round %d job %d: %v", r.index, i, err)
				continue
			}
			results := make([]*gpu.Results, len(rows))
			for k, row := range rows {
				results[k] = row.Result
			}
			if !fresh {
				b.record(r, fmt.Sprintf("spec%d", i%len(cached)), results)
				continue
			}
			b.record(r, "", results)
			if firstFresh {
				firstFresh = false
				// The checked row walks across the designs from round to round.
				samples = append(samples, sampled{spec, rows[r.index%len(rows)]})
			}
		}
		if r.traced {
			st := d.srv.Stats()
			hitRatio = append(hitRatio, float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
			freshPoints = append(freshPoints, float64(st.PointsCompleted-st.PointsCached))
		}
		if serr := d.stop(); err == nil {
			err = serr
		}
		return err
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		jobs, errs := s.spec.Jobs()
		if err := errs[s.row.Index]; err != nil {
			b.fail("%s/%s seed %d: %v", s.row.Design, s.spec.App, s.spec.Seed, err)
			continue
		}
		j := jobs[s.row.Index]
		direct, err := gpu.RunChecked(j.Cfg, j.D, j.App, gpu.HealthOptions{})
		want, _ := json.Marshal(direct)
		got, _ := json.Marshal(s.row.Result)
		if err != nil || !bytes.Equal(want, got) {
			b.fail("%s/%s seed %d: streamed row differs from a direct run (err %v)", s.row.Design, s.spec.App, s.spec.Seed, err)
		}
	}
	b.layer["serve.store_hit_ratio"] = median(hitRatio)
	b.layer["serve.fresh_points"] = median(freshPoints)
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// daemon is one lifetime of the in-process service and its client.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon opens the service state in dir and serves it on a loopback
// port. A traced round r records serve.New, which opens the store and
// replays the job log, as a span.
func startDaemon(b *bench, r *round, dir string, workers int) (*daemon, error) {
	end := b.span(r, "serve.open")
	srv, err := serve.New(serve.Options{DataDir: dir, Workers: workers})
	end()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		// One client connection, reused for every request.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the service down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if cerr := d.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// job POSTs spec, streams the job's NDJSON to its done record and returns
// the point rows in index order. Each row must be present, once, and OK.
// A traced round r records the POST and the stream as spans.
func (d *daemon) job(b *bench, r *round, spec serve.SweepSpec) ([]serve.PointResult, error) {
	end := b.span(r, "serve.submit")
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(spec.Encode()))
	if err != nil {
		end()
		return nil, err
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	drainClose(resp.Body)
	end()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}

	end = b.span(r, "serve.stream")
	defer end()
	resp, err = d.client.Get(d.base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	rows := make([]serve.PointResult, len(spec.Designs))
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), serveLineLimit)
	for sc.Scan() {
		var done struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		if done.Done {
			if seen != len(rows) {
				return nil, fmt.Errorf("stream: %d rows for %d designs", seen, len(rows))
			}
			return rows, nil
		}
		var row serve.PointResult
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		if row.Index < 0 || row.Index >= len(rows) || rows[row.Index].Result != nil {
			return nil, fmt.Errorf("stream: unexpected row index %d", row.Index)
		}
		if !row.OK || row.Result == nil {
			return nil, fmt.Errorf("stream: %s failed: %s", row.Design, row.Err)
		}
		rows[row.Index] = row
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return nil, fmt.Errorf("stream ended before its done record")
}

// drainClose reads body to its end before closing it, so the client keeps
// its one connection for the next request.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}
