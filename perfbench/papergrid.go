package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"ldcflood/internal/flood"
	"ldcflood/internal/service"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// paperGridSeeds is the number of simulation seeds per (protocol, duty).
const paperGridSeeds = 4

// paperGridCells is the grid size: 3 protocols × 10 duties × the seeds.
const paperGridCells = 3 * 10 * paperGridSeeds

// paperGridSpec is the paper's Fig. 9–11 grid with floodd's defaults for
// everything else: the canonical topology, serial engine, compact time
// off, one runner worker per CPU. The service numbers the simulation seeds
// 0..paperGridSeeds-1 itself, so this workload's inputs do not depend on
// the workload seed.
func paperGridSpec() service.Spec {
	duties := make([]float64, 10)
	for i := range duties {
		duties[i] = float64(2*(i+1)) / 100
	}
	return service.Spec{
		Protocols: []string{"opt", "dbao", "of"},
		Duties:    duties,
		Seeds:     paperGridSeeds,
		M:         100,
		Coverage:  coverage,
		TopoSeed:  canonicalTopoSeed,
	}
}

// paperGrid is an in-process floodd: a service.Service behind its HTTP
// handler on a loopback port, driven by one client over one connection.
type paperGrid struct {
	spec   service.Spec
	grid   *service.Grid // the benchmark's own compile, for checking and the traced replay
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	env    *env
}

func setupPaperGrid(e *env, tr *tracer) (instance, error) {
	spec := paperGridSpec()
	grid, err := service.Compile(spec)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// The service compiles the grid inside Submit, out of reach; time
		// the same topology and schedule calls on their own instead.
		cells := make([]cell, len(grid.Cells))
		for i, c := range grid.Cells {
			cells[i] = cell{Protocol: c.Protocol, Duty: c.Duty, M: spec.M}
		}
		if _, err := buildInputs(topology.GreenOrbsNodes, spec.TopoSeed, e.seed, cells, tr); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(e.dir, "floodd-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, svc.Drain(context.Background()))
	}
	p := &paperGrid{
		spec: spec, grid: grid, svc: svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		env:    e,
	}
	go func() { p.served <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *paperGrid) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p.client.CloseIdleConnections()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, p.svc.Drain(ctx))
}

// pass submits the sweep, follows its events and fetches the CSV. The
// service layer is observed from outside: client timings, the job's
// lifecycle timestamps, and the telemetry floodd always keeps.
func (p *paperGrid) pass(tr *tracer) (passOut, error) {
	if tr != nil {
		return p.replay(tr)
	}
	reqs0 := p.svc.Registry().Counter("floodd.http.requests").Value()
	cpu0, t0 := cpuTime(), time.Now()
	body, err := json.Marshal(p.spec)
	if err != nil {
		return passOut{}, err
	}
	var st service.Status
	if err := p.do(http.MethodPost, "/v1/jobs", body, func(r io.Reader) error { return json.NewDecoder(r).Decode(&st) }); err != nil {
		return passOut{}, fmt.Errorf("submit: %w", err)
	}
	tSubmit := time.Now()
	events, done, err := p.wait(st.ID)
	if err != nil {
		return passOut{}, err
	}
	if done.State != service.StateDone {
		return passOut{}, fmt.Errorf("job %s ended %s: %s", st.ID, done.State, done.Error)
	}
	var csvData []byte
	if err := p.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, func(r io.Reader) (err error) {
		csvData, err = io.ReadAll(r)
		return err
	}); err != nil {
		return passOut{}, fmt.Errorf("result: %w", err)
	}
	tCSV := time.Now()

	out, slots, err := p.verify(csvData)
	if err != nil {
		return passOut{}, err
	}
	spans, err := jobSpans(slots, p.batchWorkers(), events)
	if err != nil {
		return passOut{}, err
	}
	out.sims = knownMillis(spans)
	out.wall, out.cpu = time.Since(t0), cpuTime()-cpu0

	job, ok := p.svc.Job(st.ID)
	if !ok || done.Started == nil || done.Finished == nil {
		return passOut{}, fmt.Errorf("job %s: lifecycle timestamps missing", st.ID)
	}
	batch := done.Finished.Sub(*done.Started)
	jobWall := job.Registry.Timer("runner.job_wall").Total()
	out.layers = map[string]float64{
		"service.submit_ms":      float64(tSubmit.Sub(t0)) / 1e6,
		"service.queue_ms":       float64(done.Started.Sub(done.Created)) / 1e6,
		"service.tail_ms":        float64(tCSV.Sub(*done.Finished)) / 1e6,
		"service.http_requests":  float64(p.svc.Registry().Counter("floodd.http.requests").Value() - reqs0),
		"runner.batch_s":         batch.Seconds(),
		"runner.job_wall_sum_s":  jobWall.Seconds(),
		"runner.utilization":     jobWall.Seconds() / (float64(p.batchWorkers()) * batch.Seconds()),
		"runner.journal_appends": float64(job.Registry.Counter("runner.journal.appends").Value()),
	}
	if rec := p.env.rec; rec != nil {
		root := rec.add(span{Name: "service.job", Parent: p.env.pass, Cell: -1, Start: rec.at(t0), End: rec.at(tCSV)})
		for _, s := range []struct {
			name string
			a, b time.Time
		}{
			{"service.submit", t0, tSubmit},
			{"service.queue", done.Created, *done.Started},
			{"runner.batch", *done.Started, *done.Finished},
			{"service.tail", *done.Finished, tCSV},
		} {
			rec.add(span{Name: s.name, Parent: root, Cell: -1, Start: rec.at(s.a), End: rec.at(s.b)})
		}
	}
	return out, nil
}

// batchWorkers is the service runner's worker count for the grid.
func (p *paperGrid) batchWorkers() int {
	w := p.grid.BatchWorkers
	if w <= 0 {
		w = parallelism()
	}
	if w > len(p.grid.Cells) {
		w = len(p.grid.Cells)
	}
	return w
}

// do sends one request on the client's single connection and hands a 2xx
// body to read.
func (p *paperGrid) do(method, path string, body []byte, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

// wait follows the job's server-sent events until the terminal "done"
// event, collecting every progress snapshot.
func (p *paperGrid) wait(id string) ([]completion, service.Status, error) {
	var (
		events []completion
		done   service.Status
		got    bool
	)
	err := p.do(http.MethodGet, "/v1/jobs/"+id+"/events", nil, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		var typ string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				typ = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data := []byte(strings.TrimPrefix(line, "data: "))
				switch typ {
				case "progress":
					var v service.ProgressView
					if err := json.Unmarshal(data, &v); err != nil {
						return fmt.Errorf("progress event: %w", err)
					}
					events = append(events, completion{Done: v.Done, Slots: v.Slots, Elapsed: time.Duration(v.Elapsed)})
				case "done":
					if err := json.Unmarshal(data, &done); err != nil {
						return fmt.Errorf("done event: %w", err)
					}
					got = true
				}
			}
		}
		return sc.Err()
	})
	if err == nil && !got {
		err = fmt.Errorf("event stream ended without a done event")
	}
	if err != nil {
		return nil, done, fmt.Errorf("events: %w", err)
	}
	return events, done, nil
}

// verify checks the CSV artifact row by row against the gate and returns
// the per-cell digests and simulated slot counts.
func (p *paperGrid) verify(data []byte) (passOut, []int64, error) {
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return passOut{}, nil, fmt.Errorf("result CSV: %w", err)
	}
	cells := p.grid.Cells
	if len(records) != len(cells)+1 {
		return passOut{}, nil, fmt.Errorf("result CSV has %d rows, want %d", len(records)-1, len(cells))
	}
	col := map[string]int{}
	for i, h := range records[0] {
		col[h] = i
	}
	num := func(rec []string, name string) int64 {
		v, _ := strconv.ParseInt(rec[col[name]], 10, 64)
		return v
	}
	out := passOut{attempted: len(cells), digests: make([]string, len(cells))}
	slots := make([]int64, len(cells))
	cover := coverNodes(p.grid.Jobs[0].Graph.N())
	for i, rec := range records[1:] {
		t := tally{
			Completed:     rec[col["completed"]] == "true",
			Transmissions: int(num(rec, "transmissions")),
			Failures:      int(num(rec, "failures")),
			Overheard:     int(num(rec, "overheard")),
			CoverNodes:    cover,
			M:             p.spec.M,
		}
		if why := gate(t); why != "" {
			out.failures = append(out.failures, fmt.Sprintf("%s: %s", cells[i], why))
		}
		slots[i] = num(rec, "total_slots")
		out.digests[i] = digest(rec)
	}
	return out, slots, nil
}

// replay is paper-grid's traced pass. The service builds its simulations
// inside Submit, where no instrumentation can reach, so the traced pass
// runs the same compiled grid through runner.Run, as the service does;
// its digests must equal the service's CSV rows.
func (p *paperGrid) replay(tr *tracer) (passOut, error) {
	cpu0, t0 := cpuTime(), time.Now()
	cfgs := make([]sim.Config, len(p.grid.Jobs))
	for i, job := range p.grid.Jobs {
		proto, err := flood.New(p.grid.Cells[i].Protocol)
		if err != nil {
			return passOut{}, err
		}
		job.Protocol = proto
		cfgs[i] = job
	}
	b, err := execute(cfgs, tr)
	if err != nil {
		return passOut{}, err
	}
	out := passOut{attempted: len(cfgs), digests: make([]string, len(cfgs))}
	for i, jr := range b.rs {
		if jr.Err != nil {
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", p.grid.Cells[i], jr.Err))
			continue
		}
		if why := gate(tallyOf(jr.Res)); why != "" {
			out.failures = append(out.failures, fmt.Sprintf("%s: %s", p.grid.Cells[i], why))
		}
		out.digests[i] = digest(service.CSVRow(p.grid.Cells[i], jr.Res))
	}
	out.sims = knownMillis(b.spans)
	out.wall, out.cpu = time.Since(t0), cpuTime()-cpu0
	return out, nil
}
