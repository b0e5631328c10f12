package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/daas"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/ct"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/screen"
	"repro/internal/sitehunt"
	"repro/internal/toolkit"
	"repro/internal/website"
	"repro/internal/worldgen"
)

// The study workload runs the paper's batch study the way cmd/repro
// does, at -scale 0.05 with a fleet of about a thousand sites.
const (
	studyScale = 0.05
	// Fleet composition in cmd/repro's proportions (-sites 720).
	fleetPhishing = 720
	fleetBenign   = fleetPhishing / 3
	fleetBait     = fleetPhishing / 20
	// toolkitFingerprints is the §8.2 corpus size (paper: 867).
	toolkitFingerprints = 867
)

// studyWorkload: one op is daas.Client.StudyWith on a fresh client,
// a §8.2 sitehunt.Detector.Run over the fleet with fresh CT and
// crawler clients, and screen.Compile plus MarshalBinary of the result.
type studyWorkload struct {
	world  *worldgen.World
	reg    *obs.Registry
	opts   daas.StudyOptions
	corpus *toolkit.Corpus
	phish  map[string]bool // fleet ground truth by domain

	host, ctLog *httptest.Server

	// The warm-up op's outputs, which every later op must reproduce.
	wantDataset, wantSnapshot [32]byte
	wantDetections            int
}

func (s *studyWorkload) setup(seed uint64) error {
	cfg := worldgen.DefaultConfig(seed)
	cfg.Scale = studyScale
	world, err := worldgen.Generate(cfg)
	if err != nil {
		return err
	}
	s.world = world
	s.reg = obs.NewRegistry()
	s.opts = daas.StudyOptions{
		DatasetEnd:         worldgen.DatasetEnd,
		PrimaryContractTxs: int(float64(measure.MinPrimaryTxs)*studyScale) + 1,
	}

	fleet := website.GenerateFleet(website.FleetConfig{
		Seed: seed, Phishing: fleetPhishing, Benign: fleetBenign, Bait: fleetBait,
	})
	s.host = httptest.NewServer(website.NewHost(fleet))
	certs, err := ct.NewLog()
	if err != nil {
		return err
	}
	s.phish = make(map[string]bool, len(fleet))
	for _, site := range fleet {
		s.phish[site.Domain] = site.Phishing
		if !site.HTTPS {
			continue
		}
		if _, err := certs.Issue([]string{site.Domain}, site.Issued); err != nil {
			return err
		}
	}
	s.ctLog = httptest.NewServer(certs.Handler())
	s.corpus = toolkit.BuildCorpus(seed, toolkitFingerprints)

	o, err := s.op(nil, 0)
	if err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	if s.wantDataset, err = datasetHash(o.study.Dataset); err != nil {
		return err
	}
	s.wantSnapshot = sha256.Sum256(o.snapshot)
	s.wantDetections = o.report.Detected()
	if fp := s.falsePositives(o.report); fp != 0 || s.wantDetections == 0 {
		return fmt.Errorf("warm-up op: %d detections, %d false positives", s.wantDetections, fp)
	}
	return nil
}

func (s *studyWorkload) close() {
	if s.host != nil {
		s.host.Close()
	}
	if s.ctLog != nil {
		s.ctLog.Close()
	}
}

// studyOp is one op's outputs and timings.
type studyOp struct {
	study    *daas.Study
	report   *sitehunt.Report
	snapshot []byte
	records  int // listed addresses in the snapshot

	start, compileStart           time.Time
	total, hunt, compile, marshal time.Duration
	cpu                           time.Duration

	// Traced ops only.
	spans      *obs.Recorder
	source     *sourceStats
	ctStats    *httpStats
	crawlStats *httpStats
	huntSpan   int
}

// op runs one op. With tr set, the chain source and both HTTP clients
// are timed and the study's own spans are recorded.
func (s *studyWorkload) op(tr *tracer, id int) (*studyOp, error) {
	o := &studyOp{}
	var src core.ChainSource = core.LocalSource{Chain: s.world.Chain}
	if tr != nil {
		o.source = &sourceStats{}
		src = wrapSource(src, o.source)
		o.spans = obs.NewRecorder()
		o.ctStats, o.crawlStats = &httpStats{}, &httpStats{}
	}
	client := daas.New(src, s.world.Labels, s.world.Oracle)
	client.Metrics = s.reg
	client.Concurrency = runtime.NumCPU()
	client.Spans = o.spans
	ctClient := ct.NewClient(s.ctLog.URL)
	ctClient.Metrics = s.reg
	cr := crawler.New(s.host.URL)
	var ctT, crT *timedTransport
	if tr != nil {
		ctT = newTimedTransport(ctClient.HTTPClient.Transport, o.ctStats, -1)
		crT = newTimedTransport(cr.HTTPClient.Transport, o.crawlStats, -1)
		ctT.tr, ctT.name, ctT.op = tr, "ct.get", id
		crT.tr, crT.name, crT.op = tr, "crawler.get", id
		ctClient.HTTPClient.Transport = ctT
		cr.HTTPClient.Transport = crT
	}

	cpu0 := cpuTime()
	start := time.Now()
	study, err := client.StudyWith(s.opts)
	if err != nil {
		return nil, err
	}
	huntStart := time.Now()
	if tr != nil {
		// HTTP spans hang off the sitehunt span, whose duration is
		// only known afterwards; reserve its ID now.
		o.huntSpan = tr.add(0, id, "sitehunt.run", "", huntStart, 0)
		ctT.parent, crT.parent = o.huntSpan, o.huntSpan
	}
	det := &sitehunt.Detector{CT: ctClient, Crawler: cr, Corpus: s.corpus, Metrics: s.reg}
	rep, err := det.Run()
	if err != nil {
		return nil, err
	}
	compileStart := time.Now()
	snap := screen.Compile(study.Dataset, study.Families, rep.PhishingDomains())
	marshalStart := time.Now()
	data, err := snap.MarshalBinary()
	if err != nil {
		return nil, err
	}
	end := time.Now()
	o.cpu = cpuTime() - cpu0
	o.study, o.report, o.snapshot, o.records = study, rep, data, snap.Len()
	o.start, o.compileStart = start, compileStart
	o.total = end.Sub(start)
	o.hunt = compileStart.Sub(huntStart)
	o.compile = marshalStart.Sub(compileStart)
	o.marshal = end.Sub(marshalStart)
	return o, nil
}

func datasetHash(ds *core.Dataset) ([32]byte, error) {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// falsePositives counts detections of sites that are not phishing.
func (s *studyWorkload) falsePositives(rep *sitehunt.Report) int {
	n := 0
	for _, d := range rep.Detections {
		if !s.phish[d.Domain] {
			n++
		}
	}
	return n
}

// check verifies one op's outputs against the warm-up op's.
func (s *studyWorkload) check(res *result, o *studyOp) {
	if h, err := datasetHash(o.study.Dataset); err != nil || h != s.wantDataset {
		res.fail("study: dataset export differs from the warm-up op's (err %v)", err)
	}
	if sha256.Sum256(o.snapshot) != s.wantSnapshot {
		res.fail("study: screening snapshot bytes differ from the warm-up op's")
	}
	if fp := s.falsePositives(o.report); fp != 0 || o.report.Detected() != s.wantDetections {
		res.fail("study: sitehunt found %d sites (%d false positives), warm-up found %d",
			o.report.Detected(), fp, s.wantDetections)
	}
}

func (s *studyWorkload) measure(d time.Duration, tr *tracer) (*result, error) {
	res := &result{classes: map[string][]float64{}}
	var lay studyLayers
	start := time.Now()
	for id := 1; ; id++ {
		if n := res.attempted; n > 0 && time.Since(start)+time.Since(start)/time.Duration(n) > d {
			break
		}
		res.attempted++
		o, err := s.op(tr, id)
		if err != nil {
			res.fail("study: op %d: %v", id, err)
			continue
		}
		res.lat = append(res.lat, ms(o.total))
		res.minor = append(res.minor, ms(o.hunt))
		res.classes["study_op"] = append(res.classes["study_op"], ms(o.total))
		res.cpu += o.cpu
		s.check(res, o)
		if tr != nil {
			s.trace(tr, id, o)
			lay.add(res, o)
		}
	}
	if tr != nil {
		res.layers = lay.metrics()
	}
	return res, nil
}

// trace records one traced op's spans.
func (s *studyWorkload) trace(tr *tracer, id int, o *studyOp) {
	root := tr.add(0, id, "study.op", "", o.start, o.total)
	for _, sp := range o.spans.Roots() {
		tr.addObs(root, id, sp)
	}
	tr.finish(o.huntSpan, root, o.hunt)
	tr.add(root, id, "screen.compile", "", o.compileStart, o.compile)
	tr.add(root, id, "screen.marshal", "", o.compileStart.Add(o.compile), o.marshal)
}

// studyLayers collects per-op layer readings of the traced ops.
type studyLayers struct {
	build, validate, clus, corpus, busy, calls, yield, run, match, det,
	ctN, ctMS, crN, crMS, compile, records []float64
}

// add books one traced op, and the op time its layers cover into res.
func (l *studyLayers) add(res *result, o *studyOp) {
	spans := map[string]time.Duration{}
	for _, sp := range o.spans.Roots() {
		spans[sp.Name()] += sp.Duration()
	}
	l.build = append(l.build, ms(spans["pipeline.build"]))
	l.validate = append(l.validate, ms(spans["study.validate"]))
	l.clus = append(l.clus, ms(spans["study.cluster"]))
	l.corpus = append(l.corpus, ms(spans["study.measure"]))
	n, b := o.source.load()
	l.calls = append(l.calls, float64(n))
	l.busy = append(l.busy, ms(b))
	if r := o.source.receipts.Load(); r > 0 {
		l.yield = append(l.yield, float64(o.study.Dataset.Stats().ProfitTxs)/float64(r))
	}
	cn, cb := o.ctStats.load()
	rn, rb := o.crawlStats.load()
	l.ctN, l.ctMS = append(l.ctN, float64(cn)), append(l.ctMS, ms(cb))
	l.crN, l.crMS = append(l.crN, float64(rn)), append(l.crMS, ms(rb))
	l.run = append(l.run, ms(o.hunt))
	l.match = append(l.match, ms(o.hunt-cb-rb))
	l.det = append(l.det, float64(o.report.Detected()))
	l.compile = append(l.compile, ms(o.compile))
	l.records = append(l.records, float64(o.records))

	res.covered += spans["pipeline.build"] + spans["study.validate"] + spans["study.cluster"] +
		spans["study.measure"] + o.hunt + o.compile + o.marshal
	res.opTime += o.total
}

// metrics is the medians of the per-op readings.
func (l *studyLayers) metrics() map[string]float64 {
	return map[string]float64{
		"core.build_ms":       median(l.build),
		"core.validate_ms":    median(l.validate),
		"cluster.cluster_ms":  median(l.clus),
		"measure.corpus_ms":   median(l.corpus),
		"source.calls":        median(l.calls),
		"source.busy_ms":      median(l.busy),
		"core.yield":          median(l.yield),
		"sitehunt.run_ms":     median(l.run),
		"sitehunt.match_ms":   median(l.match),
		"sitehunt.detections": median(l.det),
		"ct.requests":         median(l.ctN),
		"ct.fetch_ms":         median(l.ctMS),
		"crawler.requests":    median(l.crN),
		"crawler.fetch_ms":    median(l.crMS),
		"screen.compile_ms":   median(l.compile),
		"screen.records":      median(l.records),
	}
}
