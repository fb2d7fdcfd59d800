package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// measured is what one pass of a workload produced.
type measured struct {
	loop      time.Duration   // training-loop wall time, first step to last
	stepTimes []time.Duration // one per Step call, replayed steps included
	setups    []time.Duration
	peakRSSMB float64
	ne        float64
	lookups   int64 // embedding indices fed to the model

	recovery time.Duration
	ingest   ingest.MeterSnapshot
	trace    telemetry.TraceSnapshot
	metrics  telemetry.Snapshot

	attempted, failed int
	problems          []string
}

// op counts one attempted operation and reports whether it succeeded.
func (m *measured) op(what string, err error) bool {
	m.attempted++
	if err != nil {
		m.failed++
		m.problems = append(m.problems, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// correct reports whether every operation succeeded and every check held.
func (m *measured) correct() bool { return m.failed == 0 && len(m.problems) == 0 }

func (m *measured) check(err error) {
	if err != nil {
		m.problems = append(m.problems, err.Error())
	}
}

// checkLoss rejects a non-finite training loss.
func checkLoss(step int, loss float64) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("step %d: loss is %v", step, loss)
	}
	return nil
}

// checkNE requires the model to beat a constant predictor (NE < 1).
func checkNE(ne float64) error {
	if !(ne < 1) {
		return fmt.Errorf("final NE %.4f is not below 1", ne)
	}
	return nil
}

// tele is the traced run's tracer and registry, with the shard layout
// cmd/dlrmtrain uses: trainer shards, then ingest shards, then one
// checkpoint shard.
type tele struct {
	tracer    *telemetry.Tracer
	reg       *telemetry.Registry
	feedShard int
	ckptShard int
}

func newTele(w spec) *tele {
	train := 1
	if w.ranks > 0 {
		train = hybrid.Config{Ranks: w.ranks, Overlap: true}.ShardCount()
	}
	feed := 0
	if !w.elastic {
		feed = ingest.Options{Readers: 1}.ShardCount()
	}
	t := &tele{
		tracer:    telemetry.NewTracer(train+feed+1, 1<<16),
		reg:       telemetry.NewRegistry(),
		feedShard: train,
		ckptShard: train + feed,
	}
	if w.ranks == 0 {
		t.tracer.NameShard(0, "trainer")
	}
	t.tracer.NameShard(t.ckptShard, "ckpt")
	return t
}

func (t *tele) openStore(dir string) (*ckpt.Store, error) {
	if t == nil {
		return ckpt.OpenStore(dir)
	}
	return ckpt.OpenStoreWith(dir, t.reg, t.tracer, t.ckptShard)
}

func (w spec) hybridConfig(seed int64, t *tele) hybrid.Config {
	hc := hybrid.Config{
		Ranks: w.ranks, Optimizer: core.OptAdagrad, LR: learningRate, Seed: seed,
		Overlap: true, WireA2A: w.wire, WireAllReduce: w.wire,
	}
	if t != nil {
		hc.Registry, hc.Trace = t.reg, t.tracer
	}
	return hc
}

// stepper is the part of core.Trainer and hybrid.Trainer the loop uses.
type stepper interface {
	Step(b *core.MiniBatch) (float64, error)
	SaveCheckpoint(store *ckpt.Store, fullEvery int) (ckpt.SaveInfo, error)
	EvalModel() *core.Model
	Close()
}

type single struct{ *core.Trainer }

func (s single) Step(b *core.MiniBatch) (float64, error) { return s.Trainer.Step(b), nil }
func (s single) EvalModel() *core.Model                  { return s.Model }
func (s single) Close()                                  {}

type ranked struct{ *hybrid.Trainer }

func (r ranked) Step(b *core.MiniBatch) (float64, error) {
	loss, _, err := r.Trainer.Step(b)
	return loss, err
}

// session is a workload set up to take its first step.
type session struct {
	ds    *ingest.Dataset
	pipe  *ingest.Pipeline
	tr    stepper
	store *ckpt.Store
	first *core.MiniBatch
}

func (s *session) close() {
	if s.tr != nil {
		s.tr.Close()
	}
	if s.pipe != nil {
		s.pipe.Close()
	}
	if s.ds != nil {
		s.ds.Close()
	}
}

// openSession does what setup_s times: open the dataset, start the pipeline,
// build the model and trainer, open the checkpoint store, and wait for
// the first batch.
func openSession(w spec, fx *fixture, storeDir string, seed int64, t *tele) (*session, error) {
	s := &session{}
	var err error
	if s.ds, err = ingest.OpenDataset(fx.train); err != nil {
		return nil, err
	}
	opt := ingest.Options{BatchSize: batchSize, Readers: 1, Dedup: w.dedup, Seed: seed + 2}
	if t != nil {
		opt.Registry, opt.Trace, opt.TraceShard = t.reg, t.tracer, t.feedShard
	}
	if s.pipe, err = ingest.Open(s.ds, w.cfg, opt); err != nil {
		s.close()
		return nil, err
	}
	if w.ranks == 0 {
		tr := core.NewTrainer(core.NewModel(w.cfg, xrand.New(seed)),
			core.TrainerConfig{Optimizer: core.OptAdagrad, LR: learningRate})
		if t != nil {
			tr.SetTrace(t.tracer, 0)
		}
		s.tr = single{tr}
	} else {
		ht, err := hybrid.New(w.cfg, w.hybridConfig(seed, t))
		if err != nil {
			s.close()
			return nil, err
		}
		s.tr = ranked{ht}
	}
	if s.store, err = t.openStore(storeDir); err != nil {
		s.close()
		return nil, err
	}
	if s.first, err = s.pipe.NextBatch(); err != nil {
		s.close()
		return nil, fmt.Errorf("first batch: %w", err)
	}
	return s, nil
}

// runPass sets the workload up (repeatedly when repeatSetup is set,
// keeping the last session), trains p.steps steps, and evaluates and
// verifies the result. t is nil for an untraced pass.
func runPass(w spec, p plan, fx *fixture, work string, seed int64, repeatSetup bool, t *tele) (*measured, error) {
	if w.elastic {
		return runElastic(w, p, fx, work, seed, repeatSetup, t)
	}
	m := &measured{}
	storeDir := filepath.Join(work, "ckpt")
	var s *session
	var spent time.Duration
	for {
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if s, err = openSession(w, fx, storeDir, seed, t); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		m.setups, spent = append(m.setups, d), spent+d
		m.attempted++ // the first batch
		if !repeatSetup || enoughSetups(len(m.setups), spent) {
			break
		}
		s.close()
	}
	defer s.close()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	b := s.first
	start := time.Now()
	for step := 0; step < p.steps; step++ {
		if step > 0 {
			var err error
			if b, err = s.pipe.NextBatch(); !m.op("ingest", err) {
				break
			}
		}
		m.lookups += lookups(b)
		t0 := time.Now()
		loss, err := s.tr.Step(b)
		m.stepTimes = append(m.stepTimes, time.Since(t0))
		s.pipe.Recycle(b)
		if err == nil {
			err = checkLoss(step, loss)
		}
		if !m.op("step", err) {
			break
		}
		if (step+1)%p.every == 0 {
			if _, err := s.tr.SaveCheckpoint(s.store, fullEvery); !m.op("checkpoint save", err) {
				break
			}
		}
	}
	m.loop = time.Since(start)
	var err error
	if m.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	m.ingest = s.pipe.Meters()
	s.pipe.Close() // the tracer snapshot needs the ingest goroutines stopped
	if t != nil {
		m.trace, m.metrics = t.tracer.Snapshot(), t.reg.Snapshot()
	}
	m.ne = core.Evaluate(s.tr.EvalModel(), fx.eval).NE
	m.check(checkNE(m.ne))
	m.op("checkpoint verify", s.store.Verify())
	return m, nil
}

func lookups(b *core.MiniBatch) int64 {
	var n int64
	for _, bag := range b.Bags {
		n += int64(len(bag.Indices))
	}
	return n
}

// replay is the elastic workload's batch source: the fixture's batches
// served from memory, from a given step on. It times each Step as the
// interval between handing a batch out and getting it back, which is
// exactly the trainer's Step call in hybrid.RunElastic.
type replay struct {
	batches []*core.MiniBatch
	next    int
	m       *measured
	firstAt time.Time // when the run's first batch was handed out
	lent    time.Time
}

func (r *replay) NextBatch() (*core.MiniBatch, error) {
	if r.next >= len(r.batches) {
		return nil, io.EOF
	}
	b := r.batches[r.next]
	r.next++
	r.m.lookups += lookups(b)
	r.lent = time.Now()
	if r.firstAt.IsZero() {
		r.firstAt = r.lent
	}
	return b, nil
}

func (r *replay) Recycle(*core.MiniBatch) {
	r.m.stepTimes = append(r.m.stepTimes, time.Since(r.lent))
}

// elasticSetup is one standalone sample of what hybrid.RunElastic does
// before its first step: build the world, look for a checkpoint to resume
// from (the store is empty), and take the first batch.
func elasticSetup(w spec, fx *fixture, storeDir string, seed int64) error {
	if err := os.RemoveAll(storeDir); err != nil {
		return err
	}
	ht, err := hybrid.New(w.cfg, w.hybridConfig(seed, nil))
	if err != nil {
		return err
	}
	defer ht.Close()
	store, err := ckpt.OpenStore(storeDir)
	if err != nil {
		return err
	}
	if _, err := ht.RestoreCheckpoint(store); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		return fmt.Errorf("restoring from an empty store: got %v", err)
	}
	r := &replay{batches: fx.batches, m: &measured{}}
	_, err = r.NextBatch()
	return err
}

func runElastic(w spec, p plan, fx *fixture, work string, seed int64, repeatSetup bool, t *tele) (*measured, error) {
	m := &measured{}
	storeDir := filepath.Join(work, "ckpt")
	var spent time.Duration
	// The run's own setup is one more sample.
	for repeatSetup && !enoughSetups(len(m.setups)+1, spent) {
		t0 := time.Now()
		if err := elasticSetup(w, fx, storeDir, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		m.setups, spent = append(m.setups, d), spent+d
	}
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	faults, err := collective.ParseFaultSchedule(fmt.Sprintf("kill:1@%d", p.killAt))
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	store, err := t.openStore(storeDir)
	if err != nil {
		return nil, err
	}
	var src *replay
	start := time.Now()
	res, err := hybrid.RunElastic(hybrid.ElasticConfig{
		Cfg: w.cfg, HC: w.hybridConfig(seed, t), Store: store,
		CkptEvery: p.every, FullEvery: fullEvery, Steps: p.steps, Faults: faults,
		Source: func(skip int) (core.BatchSource, func(), error) {
			firstAt := time.Time{}
			if src != nil {
				firstAt = src.firstAt
			}
			src = &replay{batches: fx.batches[:p.steps], next: skip, m: m, firstAt: firstAt}
			return src, func() {}, nil
		},
	})
	end := time.Now()
	if src == nil || src.firstAt.IsZero() {
		return nil, fmt.Errorf("elastic run took no step: %v", err)
	}
	m.setups = append(m.setups, src.firstAt.Sub(start))
	m.loop = end.Sub(src.firstAt)
	// Every scheduled step is attempted once; replayed steps are the
	// recovery's cost, not extra operations.
	m.attempted += p.steps
	if !m.op("elastic run", err) {
		return m, nil
	}
	if m.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	m.recovery = res.RecoveryWall
	if t != nil {
		m.trace, m.metrics = t.tracer.Snapshot(), t.reg.Snapshot()
	}
	for i, loss := range res.Losses[:res.Steps] {
		if err := checkLoss(i, loss); err != nil {
			m.failed++
			m.check(err)
			break
		}
	}
	m.check(checkElastic(res, p.steps, faults.Len()))
	m.op("checkpoint verify", store.Verify())
	ht, _, err := hybrid.Restore(w.cfg, w.hybridConfig(seed, nil), store, nil)
	if !m.op("final restore", err) {
		return m, nil
	}
	m.ne = core.Evaluate(ht.EvalModel(), fx.eval).NE
	ht.Close()
	m.check(checkNE(m.ne))
	return m, nil
}

// checkElastic requires the run to reach its target step count through
// exactly the scheduled number of recoveries.
func checkElastic(res *hybrid.ElasticResult, steps, kills int) error {
	if res.Steps != steps || res.Recoveries != kills {
		return fmt.Errorf("elastic run reached step %d/%d with %d recoveries, want %d",
			res.Steps, steps, res.Recoveries, kills)
	}
	return nil
}
