package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dime/internal/core"
	"dime/internal/entity"
	"dime/internal/obs"
)

// Service errors; handlers map them onto HTTP status codes.
var (
	// ErrNotFound reports an unknown corpus, job, level or partition (404).
	ErrNotFound = errors.New("serve: not found")
	// ErrBadRequest reports an invalid payload (400).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrConflict reports a duplicate corpus ID or a result requested from
	// an unfinished job (409).
	ErrConflict = errors.New("serve: conflict")
)

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Options configures a Service (and the Server wrapping it).
type Options struct {
	// Workers is the discovery worker-goroutine count (< 1 uses 2).
	Workers int
	// QueueDepth bounds the queued-but-not-running discovery jobs; a full
	// queue rejects discover requests with 429. Zero uses 64; negative
	// means a zero-depth queue (tests).
	QueueDepth int
	// RequestTimeout caps synchronous request handling and the ?wait=true
	// long-poll on job status. Zero uses 30s.
	RequestTimeout time.Duration
	// Profiles seeds the named profile registry; nil uses BuiltinProfiles().
	Profiles map[string]Profile
	// Registry receives per-endpoint latency histograms and request
	// counters, and serves /metrics; nil uses obs.Default().
	Registry *obs.Registry
	// Flight is the flight recorder behind /debug/flight; request and
	// discovery spans land in it. Nil uses obs.DefaultFlight().
	Flight *obs.FlightRecorder
	// BeforeJob, when non-nil, runs at the start of every discovery job on
	// the worker goroutine — a test hook for making pool occupancy
	// deterministic in backpressure and shutdown tests.
	BeforeJob func(corpusID, jobID string)
}

// withDefaults fills the zero values in.
func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	switch {
	case o.QueueDepth == 0:
		o.QueueDepth = 64
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.Profiles == nil {
		o.Profiles = BuiltinProfiles()
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	if o.Flight == nil {
		o.Flight = obs.DefaultFlight()
	}
	return o
}

// Job is one asynchronous discovery run.
type Job struct {
	// ID is unique within the corpus ("job-1", "job-2", ... in submission
	// order, so API output is deterministic).
	ID string

	mu     sync.Mutex
	state  string
	errMsg string
	result *core.Result
	done   chan struct{}
}

// Snapshot returns the job's current (state, error).
func (j *Job) Snapshot() (state, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

// Result returns the job result once done (nil before that, or on failure).
// The result is shared and immutable: a job that reused the corpus's latest
// discovery holds the same pointer as the job that computed it, and nothing
// mutates a result after finish.
func (j *Job) Result() *core.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

func (j *Job) finish(res *core.Result, err error) {
	j.mu.Lock()
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
		j.result = res
	}
	j.mu.Unlock()
	close(j.done)
}

// corpus is the per-corpus state: the incremental session plus job history.
type corpus struct {
	mu      sync.Mutex
	id      string
	profile string
	prof    Profile
	group   *entity.Group
	sess    *core.Session
	jobSeq  int
	jobs    map[string]*Job
	// idem maps Idempotency-Key values to the job each first created, so a
	// retried discover submission returns the original job instead of
	// enqueueing a duplicate.
	idem map[string]string
	// last is the most recent successfully completed discovery (and the job
	// that produced it); the scrollbar and witness endpoints serve it, and a
	// discover job over an unchanged corpus returns it instead of rerunning
	// DIME+. It is published before the job's done channel closes, and it is
	// shared and immutable: no one mutates a result once it is published.
	last    *core.Result
	lastJob string
}

// Service owns corpora, profiles and the discovery job pool. It is safe for
// concurrent use; it knows nothing about HTTP.
type Service struct {
	opts     Options
	profiles *profileSet
	pool     *Pool
	probe    obs.Probe

	mu       sync.RWMutex
	corpora  map[string]*corpus
	draining bool

	// computed and reused count finished discover jobs by whether they ran
	// DIME+ or returned the corpus's latest discovery (dime.jobs.computed,
	// dime.jobs.reused in /metrics).
	computed *obs.Counter
	reused   *obs.Counter

	// latMu guards the EWMA of observed DIME+ run durations feeding
	// Retry-After derivation.
	latMu      sync.Mutex
	avgJobSecs float64
	jobSamples int
}

// NewService builds a Service and starts its worker pool.
func NewService(opts Options) *Service {
	opts = opts.withDefaults()
	return &Service{
		opts:     opts,
		profiles: newProfileSet(opts.Profiles),
		pool:     NewPool(opts.Workers, opts.QueueDepth),
		probe:    obs.Multi(obs.Observer(opts.Registry), opts.Flight),
		corpora:  make(map[string]*corpus),
		computed: opts.Registry.Counter("dime.jobs.computed"),
		reused:   opts.Registry.Counter("dime.jobs.reused"),
	}
}

// RegisterProfile adds a named profile (tests and embedders; built-ins come
// from Options.Profiles).
func (s *Service) RegisterProfile(name string, p Profile) error {
	return s.profiles.register(name, p)
}

// Draining reports whether shutdown began.
func (s *Service) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Drain stops accepting mutations and waits for queued and running jobs.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	return s.pool.Drain(ctx)
}

// lookup returns the corpus for id.
func (s *Service) lookup(id string) (*corpus, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.corpora[id]
	if !ok {
		return nil, fmt.Errorf("%w: corpus %q", ErrNotFound, id)
	}
	return c, nil
}

// CreateCorpus creates an empty corpus under a registered profile.
func (s *Service) CreateCorpus(req CreateCorpusRequest) (CorpusJSON, error) {
	if req.ID == "" {
		return CorpusJSON{}, fmt.Errorf("%w: corpus id must not be empty", ErrBadRequest)
	}
	prof, ok := s.profiles.get(req.Profile)
	if !ok {
		return CorpusJSON{}, fmt.Errorf("%w: unknown profile %q (have %v)",
			ErrBadRequest, req.Profile, s.profiles.names())
	}
	name := req.Name
	if name == "" {
		name = req.ID
	}
	g := entity.NewGroup(name, prof.Config.Schema)
	sess, err := core.NewSession(g, core.Options{Config: prof.Config, Rules: prof.Rules, Probe: s.probe})
	if err != nil {
		return CorpusJSON{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c := &corpus{
		id: req.ID, profile: req.Profile, prof: prof,
		group: g, sess: sess, jobs: make(map[string]*Job),
		idem: make(map[string]string),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return CorpusJSON{}, ErrDraining
	}
	if _, dup := s.corpora[req.ID]; dup {
		return CorpusJSON{}, fmt.Errorf("%w: corpus %q already exists", ErrConflict, req.ID)
	}
	s.corpora[req.ID] = c
	return c.info(), nil
}

// info renders the corpus summary; callers must not hold c.mu.
func (c *corpus) info() CorpusJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CorpusJSON{
		ID:         c.id,
		Name:       c.group.Name,
		Profile:    c.profile,
		Entities:   c.sess.Size(),
		Partitions: len(c.sess.Partitions()),
		Jobs:       c.jobSeq,
	}
}

// DeleteCorpus removes a corpus. Jobs already running keep their snapshot
// and finish; their results become unreachable.
func (s *Service) DeleteCorpus(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if _, ok := s.corpora[id]; !ok {
		return fmt.Errorf("%w: corpus %q", ErrNotFound, id)
	}
	delete(s.corpora, id)
	return nil
}

// ListCorpora returns every corpus summary, sorted by ID, plus the
// registered profile names.
func (s *Service) ListCorpora() CorporaJSON {
	s.mu.RLock()
	ids := make([]string, 0, len(s.corpora))
	byID := make(map[string]*corpus, len(s.corpora))
	for id, c := range s.corpora {
		ids = append(ids, id)
		byID[id] = c
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	out := CorporaJSON{Corpora: make([]CorpusJSON, 0, len(ids)), Profiles: s.profiles.names()}
	for _, id := range ids {
		out.Corpora = append(out.Corpora, byID[id].info())
	}
	return out
}

// GetCorpus returns one corpus summary.
func (s *Service) GetCorpus(id string) (CorpusJSON, error) {
	c, err := s.lookup(id)
	if err != nil {
		return CorpusJSON{}, err
	}
	return c.info(), nil
}

// Ingest appends entities to the corpus in request order, folding each into
// the incremental session. The first invalid entity aborts the batch with
// ErrBadRequest; earlier entities stay (the response's Added counts them).
func (s *Service) Ingest(id string, req IngestRequest) (IngestResponse, error) {
	if s.Draining() {
		return IngestResponse{}, ErrDraining
	}
	c, err := s.lookup(id)
	if err != nil {
		return IngestResponse{}, err
	}
	if len(req.Entities) == 0 {
		return IngestResponse{}, fmt.Errorf("%w: ingest needs at least one entity", ErrBadRequest)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := IngestResponse{}
	for _, je := range req.Entities {
		e, err := entity.NewEntity(c.group.Schema, je.ID, je.Values)
		if err != nil {
			// NewEntity errors already name the entity.
			resp.Size = c.sess.Size()
			return resp, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		rebuilt, err := c.sess.Add(e)
		if err != nil {
			resp.Size = c.sess.Size()
			return resp, fmt.Errorf("%w: entity %q: %v", ErrBadRequest, je.ID, err)
		}
		if rebuilt {
			resp.Rebuilds++
		}
		resp.Added++
	}
	resp.Size = c.sess.Size()
	return resp, nil
}

// Partitions returns the live partitions of the incremental session.
func (s *Service) Partitions(id string) (PartitionsJSON, error) {
	c, err := s.lookup(id)
	if err != nil {
		return PartitionsJSON{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PartitionsJSON{
		Corpus:     c.id,
		Entities:   c.sess.Size(),
		Partitions: c.sess.Partitions(),
	}, nil
}

// StartDiscover submits an asynchronous discovery job for the corpus and
// returns its status. The job's result is core.DIMEPlus on a snapshot of the
// current entities, so it is reproducible from the (entities, profile) pair
// alone — byte-identical to an in-process Discover call — regardless of what
// is ingested while it runs. When the corpus is unchanged since its latest
// completed discovery, the job returns that discovery's result instead of
// rerunning DIME+; by the same contract it is byte-identical. Pool
// backpressure surfaces as ErrQueueFull, shutdown as ErrDraining.
//
// A non-empty idemKey makes the submission idempotent: the first request
// under a key enqueues a job and records the binding; any replay of the same
// key on this corpus returns that original job's current status instead of
// enqueueing again. That lets a client retry a discover POST through
// timeouts, resets and truncated responses without ever duplicating work.
func (s *Service) StartDiscover(id string, _ DiscoverRequest, idemKey string) (JobJSON, error) {
	if s.Draining() {
		return JobJSON{}, ErrDraining
	}
	c, err := s.lookup(id)
	if err != nil {
		return JobJSON{}, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if idemKey != "" {
		if jid, seen := c.idem[idemKey]; seen {
			return jobJSON(c.id, c.jobs[jid]), nil
		}
	}
	job := &Job{
		ID:    fmt.Sprintf("job-%d", c.jobSeq+1),
		state: JobQueued,
		done:  make(chan struct{}),
	}
	// Snapshot the entity window now, under the corpus lock, so the job is
	// pinned to the corpus state at submission time: entities are immutable
	// once ingested, and DIMEPlus never mutates the group, so the shallow
	// copy is race-free against concurrent ingests.
	snapshot := &entity.Group{
		Name:     c.group.Name,
		Schema:   c.group.Schema,
		Entities: append([]*entity.Entity(nil), c.group.Entities...),
	}
	opts := core.Options{Config: c.prof.Config, Rules: c.prof.Rules, Probe: s.probe}
	hook := s.opts.BeforeJob
	task := func() {
		job.setRunning()
		if hook != nil {
			hook(c.id, job.ID)
		}
		res, err := s.discover(c, snapshot, opts)
		if err == nil {
			// Publish before done closes, so a client that saw this job
			// done and submits the next one finds it and reuses it.
			c.mu.Lock()
			c.last = res
			c.lastJob = job.ID
			c.mu.Unlock()
		}
		job.finish(res, err)
	}
	if err := s.pool.Submit(task); err != nil {
		return JobJSON{}, err
	}
	c.jobSeq++
	c.jobs[job.ID] = job
	if idemKey != "" {
		c.idem[idemKey] = job.ID
	}
	return jobJSON(c.id, job), nil
}

// discover returns DIME+ on the snapshot: the corpus's latest completed
// discovery when it covers exactly the snapshot's entities, a fresh run
// otherwise.
func (s *Service) discover(c *corpus, snapshot *entity.Group, opts core.Options) (*core.Result, error) {
	// The entity count alone identifies the snapshot: Ingest appends under
	// c.mu, Session.Add rolls back a failed compile before the lock is
	// released, no path removes an entity, DeleteCorpus drops the whole
	// corpus object, and a corpus's profile is fixed when it is created. So
	// two snapshots of one corpus with equal counts hold the same entities,
	// and DIME+ on the same entities is byte-identical.
	c.mu.Lock()
	last := c.last
	c.mu.Unlock()
	if last != nil && len(last.Group.Entities) == len(snapshot.Entities) {
		s.reused.Add(1)
		return last, nil
	}
	start := obs.Now()
	res, err := core.DIMEPlus(snapshot, opts)
	s.observeJobDuration(obs.Since(start))
	s.computed.Add(1)
	return res, err
}

// observeJobDuration folds one DIME+ run's wall-clock duration into the EWMA
// behind Retry-After derivation (0.8 history, 0.2 new sample; the first
// sample seeds the average). Reused jobs run no DIME+ and are not sampled.
func (s *Service) observeJobDuration(d time.Duration) {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	secs := d.Seconds()
	if s.jobSamples == 0 {
		s.avgJobSecs = secs
	} else {
		s.avgJobSecs = 0.8*s.avgJobSecs + 0.2*secs
	}
	s.jobSamples++
}

// retryAfterSeconds derives the Retry-After value for 429/503 responses from
// the observed backlog: with q queued and r running jobs, a new submission
// waits roughly avgJob * (q + r + 1) / workers seconds for a slot. The value
// is clamped to [1, 60] — before any job has completed (average unknown, 0)
// it reports the floor, matching the previous fixed behavior.
func (s *Service) retryAfterSeconds() int {
	s.latMu.Lock()
	avg := s.avgJobSecs
	s.latMu.Unlock()
	pending := s.pool.Queued() + s.pool.Running()
	secs := int(math.Ceil(avg * float64(pending+1) / float64(s.opts.Workers)))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// jobJSON renders a job status.
func jobJSON(corpusID string, j *Job) JobJSON {
	state, errMsg := j.Snapshot()
	return JobJSON{Job: j.ID, Corpus: corpusID, State: state, Error: errMsg}
}

// job returns a corpus job by ID.
func (s *Service) job(corpusID, jobID string) (*corpus, *Job, error) {
	c, err := s.lookup(corpusID)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	j, ok := c.jobs[jobID]
	c.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: job %q on corpus %q", ErrNotFound, jobID, corpusID)
	}
	return c, j, nil
}

// JobStatus returns a job's status. With wait, it blocks until the job
// reaches a terminal state or ctx expires — whichever comes first — and
// returns the status at that moment (waiting out the deadline is not an
// error; the caller sees the still-pending state).
func (s *Service) JobStatus(ctx context.Context, corpusID, jobID string, wait bool) (JobJSON, error) {
	c, j, err := s.job(corpusID, jobID)
	if err != nil {
		return JobJSON{}, err
	}
	if wait {
		select {
		case <-j.Done():
		case <-ctx.Done():
		}
	}
	return jobJSON(c.id, j), nil
}

// JobResult returns the full result of a completed job. An unfinished job
// yields ErrConflict; a failed one ErrConflict with the failure message.
func (s *Service) JobResult(corpusID, jobID string) (*ResultJSON, error) {
	c, j, err := s.job(corpusID, jobID)
	if err != nil {
		return nil, err
	}
	state, errMsg := j.Snapshot()
	switch state {
	case JobDone:
		return ResultFromCore(c.id, j.ID, j.Result()), nil
	case JobFailed:
		return nil, fmt.Errorf("%w: job %q failed: %s", ErrConflict, jobID, errMsg)
	default:
		return nil, fmt.Errorf("%w: job %q is %s; results exist once it is done", ErrConflict, jobID, state)
	}
}

// latest returns the corpus's most recent completed discovery.
func (c *corpus) latest() (*core.Result, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last == nil {
		return nil, "", fmt.Errorf("%w: corpus %q has no completed discovery yet", ErrNotFound, c.id)
	}
	return c.last, c.lastJob, nil
}

// Scrollbar serves one level of the latest completed discovery.
func (s *Service) Scrollbar(corpusID string, level int) (ScrollbarJSON, error) {
	c, err := s.lookup(corpusID)
	if err != nil {
		return ScrollbarJSON{}, err
	}
	res, jobID, err := c.latest()
	if err != nil {
		return ScrollbarJSON{}, err
	}
	if level < 0 || level >= len(res.Levels) {
		return ScrollbarJSON{}, fmt.Errorf("%w: level %d (have levels 0..%d)",
			ErrNotFound, level, len(res.Levels)-1)
	}
	lv := res.Levels[level]
	return ScrollbarJSON{
		Corpus:           corpusID,
		Job:              jobID,
		Level:            level,
		Levels:           len(res.Levels),
		Rule:             lv.RuleName,
		EntityIDs:        lv.EntityIDs,
		PartitionIndexes: lv.PartitionIndexes,
	}, nil
}

// Witness explains one partition of the latest completed discovery.
func (s *Service) Witness(corpusID string, partition int) (WitnessReportJSON, error) {
	c, err := s.lookup(corpusID)
	if err != nil {
		return WitnessReportJSON{}, err
	}
	res, jobID, err := c.latest()
	if err != nil {
		return WitnessReportJSON{}, err
	}
	if partition < 0 || partition >= len(res.Partitions) {
		return WitnessReportJSON{}, fmt.Errorf("%w: partition %d (have 0..%d)",
			ErrNotFound, partition, len(res.Partitions)-1)
	}
	out := WitnessReportJSON{
		Corpus:    corpusID,
		Job:       jobID,
		Partition: partition,
	}
	for _, ei := range res.Partitions[partition] {
		out.EntityIDs = append(out.EntityIDs, res.Group.Entities[ei].ID)
	}
	if w, ok := res.WitnessOf(partition); ok {
		out.Marked = true
		out.Witness = &WitnessJSON{Rule: w.Rule, EntityID: w.EntityID, PivotID: w.PivotID}
	}
	return out, nil
}
