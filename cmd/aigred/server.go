package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aigre"
	"aigre/internal/aiger"
	"aigre/internal/bus"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/queue"
	"aigre/internal/store"
)

// maxBody bounds a submission body (the AIGER payload dominates).
const maxBody = 64 << 20

type serverConfig struct {
	queuePath string
	storePath string // result blob store root ("" = queuePath + ".store")
	maxJobs   int
	rate      float64
	burst     int
	parallel  bool
	verbose   bool
	// queue and batch configure the durable queue (depth bound, per-client
	// fair-share weights and lease caps, compaction threshold) and the
	// engine; newServer installs queue.Observer and batch.OnEvent itself.
	queue queue.Options
	batch aigre.BatchOptions
}

// server wires the durable queue to the batch engine: an HTTP front end
// admits jobs into the queue, and -max-jobs workers each loop "lease the next
// pending job, run it on the engine (the blocking Engine.Run), resolve the
// lease to a durable terminal record". Everything waiting lives in the
// durable queue, where a drain or crash can checkpoint it; the engine's own
// admission queue is never used.
type server struct {
	cfg  serverConfig
	q    *queue.Queue
	st   *store.Store
	bus  *bus.Bus
	eng  *aigre.Engine
	lim  *limiter
	http *http.Server

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	idle     *sync.Cond // on mu: new work, a drain or a shutdown, for idle workers
	draining bool
	leases   int // leases this incarnation (crash-hook bookkeeping)

	workers sync.WaitGroup // the worker goroutines

	casualties atomic.Int64 // failed + quarantined this incarnation
	degraded   atomic.Int64 // done, but with contained incidents
}

func newServer(ctx context.Context, cfg serverConfig) (*server, error) {
	if cfg.storePath == "" {
		cfg.storePath = cfg.queuePath + ".store"
	}
	// The bus exists before the queue so replayed WAL records seed each
	// job's event history: an SSE client reconnecting after a restart
	// replays the job's (possibly compacted) durable lifecycle.
	b := bus.New(bootToken())
	cfg.queue.Observer = func(rec queue.Record) {
		b.Publish(rec.ID, bus.Event{Type: string(rec.State), Detail: rec.Detail, Time: rec.Time})
	}
	q, err := queue.Open(cfg.queuePath, cfg.queue)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(cfg.storePath)
	if err != nil {
		q.Close()
		return nil, err
	}
	// Reap blobs orphaned by a crash between a store Put and the outcome
	// record that would have referenced it.
	live := make(map[string]bool)
	for _, j := range q.Jobs() {
		if j.Session != nil && j.Session.Result != "" {
			live[j.Session.Result] = true
		}
	}
	if removed, err := st.GC(func(d string) bool { return live[d] }); err != nil {
		fmt.Fprintln(os.Stderr, "aigred: store gc:", err)
	} else if removed > 0 {
		fmt.Fprintf(os.Stderr, "aigred: store gc: removed %d unreferenced blobs\n", removed)
	}
	// The engine's supervision stream (attempts, incidents, retries,
	// preemptions) feeds the same bus. Terminal supervision events are skipped:
	// the durable queue record is the authoritative end of a job's stream.
	cfg.batch.OnEvent = func(ev aigre.JobEvent) {
		switch ev.Event {
		case "done", "fail", "cancel":
			return
		}
		b.Publish(ev.Job, bus.Event{
			Type: ev.Event, Attempt: ev.Attempt, Class: ev.Class,
			Detail: ev.Detail, Time: ev.Time,
		})
	}
	eng, err := aigre.NewEngine(ctx, cfg.batch)
	if err != nil {
		q.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &server{
		cfg:    cfg,
		q:      q,
		st:     st,
		bus:    b,
		eng:    eng,
		lim:    newLimiter(cfg.rate, cfg.burst),
		ctx:    ctx,
		cancel: cancel,
	}
	s.idle = sync.NewCond(&s.mu)
	context.AfterFunc(ctx, s.wakeUp)
	s.workers.Add(cfg.maxJobs)
	for i := 0; i < cfg.maxJobs; i++ {
		go s.worker()
	}
	return s, nil
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// Live profiling of a running daemon: the standard net/http/pprof
	// handlers, registered explicitly (the package's init registers on
	// http.DefaultServeMux, which this server does not use). CPU profiles of
	// in-flight jobs carry the engine's sched_job / partition_phase labels.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// bootToken names one daemon incarnation; it prefixes every SSE event id so
// resume can tell same-incarnation ids (exact) from older ones (replay).
func bootToken() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("b%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// API error codes of the v1 JSON error envelope.
const (
	codeSaturated   = "saturated"
	codeRateLimited = "rate_limited"
	codeDraining    = "draining"
	codeNotFound    = "not_found"
	codeInvalidArg  = "invalid_argument"
	codeNotReady    = "not_ready"
	codeNoResult    = "no_result"
	codeInternal    = "internal"
)

// apiError is the v1 error envelope body: {"error": {...}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS hints when retrying may succeed (rate limits,
	// saturation, drain). Zero means retrying is pointless.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// writeErr emits the typed error envelope (and, when retryAfter is set, the
// conventional Retry-After header for proxies and generic clients).
func writeErr(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{"error": {
		Code: code, Message: msg, RetryAfterMS: retryAfter.Milliseconds(),
	}})
}

func (s *server) serveHTTP(ln net.Listener) error {
	s.http = &http.Server{Handler: s.mux()}
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// worker is one in-flight slot: it leases and runs jobs one after another
// until the daemon drains or shuts down.
func (s *server) worker() {
	defer s.workers.Done()
	for spec := s.lease(); spec != nil; spec = s.lease() {
		s.runJob(spec)
	}
}

// lease blocks until a job is leased (returned), or the daemon starts
// draining or shuts down (nil). The draining check and the durable lease
// happen under one lock, so once drain has set the flag no further job is
// leased.
func (s *server) lease() *queue.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining && s.ctx.Err() == nil {
		spec, err := s.q.Lease()
		if spec != nil {
			s.leases++
			if n := crashAfterLeases(); n > 0 && s.leases >= n {
				// Simulated crash for the recovery tests: the lease is on
				// disk, the job never runs, no checkpoint is written.
				os.Exit(2)
			}
			return spec
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigred: lease:", err)
		}
		s.idle.Wait()
	}
	return nil
}

// runJob executes one leased job on the engine and durably resolves the
// lease: success and permanent failures become terminal records carrying the
// queryable session; a forced-drain cancellation checkpoints the job back to
// pending for the next incarnation.
func (s *server) runJob(spec *queue.Spec) {
	if s.cfg.verbose {
		fmt.Fprintf(os.Stderr, "aigred: job %s: leased (%s)\n", spec.ID, spec.Script)
	}
	b, err := specBatch(spec, s.cfg)
	if err != nil {
		// The spec was validated at submission, so this is a payload rotted
		// on disk — a permanent failure, not a retry.
		s.resolve(spec.ID, queue.Failed, fmt.Sprintf("unrunnable spec: %v", err), nil)
		return
	}
	r, err := s.eng.Run(s.ctx, b)
	if err != nil {
		// Engine already closed under us (forced drain): checkpoint.
		s.requeue(spec.ID, "drain: engine closed before the job started")
		return
	}
	sess := &queue.Session{Record: r.Record}
	switch {
	case r.Quarantined:
		s.casualties.Add(1)
		s.resolve(spec.ID, queue.Quarantined, errText(r.Err), sess)
	case r.Cancelled:
		s.requeue(spec.ID, "drain: cancelled in flight; checkpointed back to pending")
	case r.Err != nil:
		s.casualties.Add(1)
		detail := errText(r.Err)
		if r.TimedOut {
			detail = "deadline: " + detail
		}
		s.resolve(spec.ID, queue.Failed, detail, sess)
	default:
		if len(r.Incidents) > 0 {
			s.degraded.Add(1)
		}
		// Persist the optimized network to the content-addressed store
		// before the outcome record references it: a digest in the WAL
		// never dangles. A crash after the Put but before the Resolve
		// leaves an orphan blob, which the next startup's GC reaps.
		if r.AIG != nil {
			var buf bytes.Buffer
			if werr := r.AIG.Write(&buf); werr != nil {
				fmt.Fprintf(os.Stderr, "aigred: job %s: serialize result: %v\n", spec.ID, werr)
			} else if digest, perr := s.st.Put(buf.Bytes()); perr != nil {
				fmt.Fprintf(os.Stderr, "aigred: job %s: store result: %v\n", spec.ID, perr)
			} else {
				sess.Result = digest
				sess.ResultBytes = buf.Len()
			}
		}
		s.resolve(spec.ID, queue.Done, "", sess)
	}
}

func (s *server) resolve(id string, st queue.State, detail string, sess *queue.Session) {
	if err := s.q.Resolve(id, st, detail, sess); err != nil {
		fmt.Fprintln(os.Stderr, "aigred:", err)
		return
	}
	if s.cfg.verbose {
		fmt.Fprintf(os.Stderr, "aigred: job %s: %s %s\n", id, st, detail)
	}
	// Terminal records are what bloat the WAL; check the live compaction
	// threshold each time one lands.
	if ran, err := s.q.MaybeCompact(); err != nil {
		fmt.Fprintln(os.Stderr, "aigred: compact:", err)
	} else if ran && s.cfg.verbose {
		fmt.Fprintf(os.Stderr, "aigred: queue WAL compacted (%d bytes)\n", s.q.Stats().WALBytes)
	}
}

func (s *server) requeue(id, detail string) {
	if err := s.q.Requeue(id, detail); err != nil {
		fmt.Fprintln(os.Stderr, "aigred:", err)
		return
	}
	if s.cfg.verbose {
		fmt.Fprintf(os.Stderr, "aigred: job %s: requeued: %s\n", id, detail)
	}
}

// wakeUp sends the idle workers back to look: there is new work, or the
// daemon is draining or shutting down.
func (s *server) wakeUp() {
	s.mu.Lock()
	s.idle.Broadcast()
	s.mu.Unlock()
}

func (s *server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drain is the graceful shutdown: stop leasing, 503 new submissions, let
// in-flight jobs finish until the deadline, then force-cancel the stragglers
// — which checkpoints them back to pending — and report the exit code.
func (s *server) drain(timeout time.Duration) int {
	s.mu.Lock()
	s.draining = true
	s.idle.Broadcast() // idle workers exit now, busy ones after their job
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	forced := false
	select {
	case <-done:
	case <-time.After(timeout):
		// Cancel the engine-wide context: in-flight jobs stop at the next
		// kernel-launch boundary, come back Cancelled, and their runners
		// requeue them durably.
		forced = true
		fmt.Fprintln(os.Stderr, "aigred: drain deadline exceeded; checkpointing in-flight jobs")
		s.cancel()
		<-done
	}
	if s.http != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.http.Shutdown(sctx)
		scancel()
	}
	st := s.q.Stats()
	fmt.Fprintf(os.Stderr, "aigred: drained (forced=%v): %d done, %d failed, %d quarantined, %d pending checkpointed\n",
		forced, st.Done, st.Failed, st.Quarantined, st.Pending)
	switch {
	case s.casualties.Load() > 0:
		return 4
	case s.degraded.Load() > 0:
		return 3
	}
	return 0
}

func (s *server) close() {
	s.cancel()
	s.eng.Close()
	if err := s.q.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "aigred:", err)
	}
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Name     string `json:"name,omitempty"`
	Script   string `json:"script"`
	Priority int    `json:"priority,omitempty"`
	// Parallel overrides the daemon's -parallel default when present.
	Parallel *bool    `json:"parallel,omitempty"`
	Workers  int      `json:"workers,omitempty"`
	Client   string   `json:"client,omitempty"`
	Inject   []string `json:"inject,omitempty"`
	// AIGER is the input network, base64-encoded (encoding/json's []byte).
	AIGER []byte `json:"aiger"`
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, codeDraining,
			"draining: not accepting new jobs", time.Minute)
		return
	}
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidArg, "bad request body: "+err.Error(), 0)
		return
	}
	client := req.Client
	if client == "" {
		// The peer's host, without the port: an IPv6 host is bracketed and
		// full of colons, so only SplitHostPort cuts it right.
		client = r.RemoteAddr
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			client = host
		}
	}
	if wait, ok := s.lim.allow(client, time.Now()); !ok {
		writeErr(w, http.StatusTooManyRequests, codeRateLimited,
			"rate limit exceeded for client "+client, time.Duration(wait)*time.Second)
		return
	}
	spec, err := validateSubmit(&req, s.cfg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidArg, err.Error(), 0)
		return
	}
	spec.Client = client
	if err := s.q.Submit(*spec); err != nil {
		if errors.Is(err, queue.ErrSaturated) {
			writeErr(w, http.StatusServiceUnavailable, codeSaturated, err.Error(), time.Second)
			return
		}
		writeErr(w, http.StatusInternalServerError, codeInternal, err.Error(), 0)
		return
	}
	// The submission record is on disk: the job now survives any crash.
	s.wakeUp()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": spec.ID, "state": string(queue.Pending)})
}

// validateSubmit rejects malformed submissions before anything is admitted:
// the script must parse, the AIGER payload must decode, and every inject
// spec must be well-formed.
func validateSubmit(req *submitRequest, cfg serverConfig) (*queue.Spec, error) {
	if req.Script == "" {
		return nil, errors.New("missing script")
	}
	if _, err := flow.Parse(req.Script); err != nil {
		return nil, err
	}
	if len(req.AIGER) == 0 {
		return nil, errors.New("missing aiger payload")
	}
	// The parser alone decides validity; strashing the network (aigre.Read)
	// only to throw it away was a fifth of what a submission allocated.
	if _, err := aiger.Read(bytes.NewReader(req.AIGER)); err != nil {
		return nil, fmt.Errorf("bad aiger payload: %w", err)
	}
	for _, inj := range req.Inject {
		if _, err := gpu.ParseFaultPlan(inj); err != nil {
			return nil, err
		}
	}
	parallel := cfg.parallel
	if req.Parallel != nil {
		parallel = *req.Parallel
	}
	id := queue.NewID()
	spec := &queue.Spec{
		ID:       id,
		Name:     req.Name,
		Script:   req.Script,
		Priority: req.Priority,
		Parallel: parallel,
		Workers:  req.Workers,
		Inject:   req.Inject,
		AIGER:    req.AIGER,
	}
	if spec.Name == "" {
		spec.Name = id
	}
	return spec, nil
}

// specBatch rebuilds the engine job from a durable spec.
func specBatch(spec *queue.Spec, cfg serverConfig) (aigre.Batch, error) {
	n, err := aigre.Read(bytes.NewReader(spec.AIGER))
	if err != nil {
		return aigre.Batch{}, err
	}
	opts := aigre.Options{Parallel: spec.Parallel, Workers: spec.Workers}
	for _, inj := range spec.Inject {
		plan, err := gpu.ParseFaultPlan(inj)
		if err != nil {
			return aigre.Batch{}, err
		}
		opts.FaultPlans = append(opts.FaultPlans, plan)
	}
	return aigre.Batch{
		// The engine job is named by the queue id, not the user-chosen
		// name: supervision events key by Batch.Name, and the id is what
		// the event bus and SSE streams address jobs by.
		Name:    spec.ID,
		AIG:     n,
		Script:  spec.Script,
		Options: opts,
	}, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// jobView is the JSON shape of GET /v1/jobs responses: the queue job without
// its AIGER payload (which can be megabytes and is never needed back).
type jobView struct {
	ID        string         `json:"id"`
	Name      string         `json:"name"`
	Script    string         `json:"script"`
	State     queue.State    `json:"state"`
	Detail    string         `json:"detail,omitempty"`
	Priority  int            `json:"priority,omitempty"`
	Parallel  bool           `json:"parallel,omitempty"`
	Client    string         `json:"client,omitempty"`
	Leases    int            `json:"leases"`
	Submitted time.Time      `json:"submitted"`
	Updated   time.Time      `json:"updated"`
	Session   *queue.Session `json:"session,omitempty"`
}

func viewOf(j queue.Job) jobView {
	return jobView{
		ID:        j.Spec.ID,
		Name:      j.Spec.Name,
		Script:    j.Spec.Script,
		State:     j.State,
		Detail:    j.Detail,
		Priority:  j.Spec.Priority,
		Parallel:  j.Spec.Parallel,
		Client:    j.Spec.Client,
		Leases:    j.Leases,
		Submitted: j.Spec.Submitted,
		Updated:   j.Updated,
		Session:   j.Session,
	}
}

// defaultListLimit bounds GET /v1/jobs when the client does not pass
// ?limit=: a long-lived daemon accumulates terminal sessions without end.
const defaultListLimit = 500

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	f := queue.Filter{Client: r.URL.Query().Get("client"), Limit: defaultListLimit}
	if st := queue.State(r.URL.Query().Get("state")); st != "" {
		if !st.Valid() {
			writeErr(w, http.StatusBadRequest, codeInvalidArg,
				fmt.Sprintf("unknown state %q", st), 0)
			return
		}
		f.State = st
	}
	if lim := r.URL.Query().Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, codeInvalidArg,
				fmt.Sprintf("bad limit %q (want a positive integer)", lim), 0)
			return
		}
		f.Limit = n
	}
	jobs := s.q.List(f)
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = viewOf(j)
	}
	writeJSON(w, views)
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.q.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "no such job", 0)
		return
	}
	writeJSON(w, viewOf(j))
}

// handleResult serves a finished job's optimized AIGER from the blob store:
// binary by default, JSON (with the payload base64-encoded) on request.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.q.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "no such job", 0)
		return
	}
	if !j.State.Terminal() {
		writeErr(w, http.StatusConflict, codeNotReady,
			fmt.Sprintf("job is %s; results exist once the job is terminal", j.State), time.Second)
		return
	}
	if j.Session == nil || j.Session.Result == "" {
		writeErr(w, http.StatusNotFound, codeNoResult,
			fmt.Sprintf("job ended %s with no stored result", j.State), 0)
		return
	}
	data, err := s.st.Get(j.Session.Result)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, codeInternal,
			"result blob missing from store: "+err.Error(), 0)
		return
	}
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, map[string]any{
			"id": id, "digest": j.Session.Result, "bytes": len(data), "aiger": data,
		})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Aigred-Digest", j.Session.Result)
	w.Write(data)
}

// handleEvents streams a job's lifecycle as Server-Sent Events: the durable
// queue transitions interleaved with the engine's live supervision events.
// A reconnecting client presents Last-Event-ID and the stream resumes with
// no gap; the stream ends after the terminal queue event.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.q.Get(id); !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "no such job", 0)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, codeInternal,
			"response writer cannot stream", 0)
		return
	}
	last := r.Header.Get("Last-Event-ID")
	if last == "" {
		last = r.URL.Query().Get("last_event_id")
	}
	sub := s.bus.Subscribe(id, last)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		case e, ok := <-sub.C:
			if !ok {
				// Overflow cut: the client reconnects with its last id.
				return
			}
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %s\nevent: %s\ndata: %s\n\n", e.ID, e.Type, data)
			fl.Flush()
			if queue.State(e.Type).Terminal() {
				return // the durable outcome is the end of the stream
			}
		}
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	blobs, bytes, _ := s.st.Stats()
	writeJSON(w, map[string]any{
		"queue":    s.q.Stats(),
		"engine":   s.eng.Metrics(),
		"store":    map[string]any{"blobs": blobs, "bytes": bytes},
		"draining": s.isDraining(),
	})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "draining": s.isDraining()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// limiter is a per-client token bucket: rate tokens/second up to burst.
// A zero rate admits everything. Client names are caller-supplied, so a
// bucket lives only until it has refilled to burst: it then cannot be told
// apart from the fresh bucket allow would create, and the next sweep drops
// it.
type limiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*bucket
	swept   time.Time // time of the last sweep
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiter(rate float64, burst int) *limiter {
	b := float64(burst)
	if b <= 0 {
		b = rate
		if b < 1 {
			b = 1
		}
	}
	return &limiter{rate: rate, burst: b, buckets: make(map[string]*bucket)}
}

// allow spends one token from client's bucket. When the bucket is empty it
// returns false and the whole seconds to wait for the next token.
func (l *limiter) allow(client string, now time.Time) (retryAfter int, ok bool) {
	if l.rate <= 0 {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if now.Sub(l.swept).Seconds()*l.rate >= l.burst {
		l.sweep(now) // a refill period has passed
	}
	b := l.buckets[client]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	b.last = now
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := (1 - b.tokens) / l.rate
	return int(wait) + 1, false
}

// sweep drops every bucket that has refilled to burst by now. It runs at most
// once per refill period, and every bucket untouched for a period is full, so
// the map holds only the clients seen within the last two periods and each
// sweep costs about as much as the requests since the one before.
func (l *limiter) sweep(now time.Time) {
	for client, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, client)
		}
	}
	l.swept = now
}
