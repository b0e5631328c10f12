// Package daas is the public API of the Drainer-as-a-Service
// measurement library — a reproduction of "Unmasking the Shadow
// Economy: A Deep Dive into Drainer-as-a-Service Phishing on Ethereum"
// (IMC 2025).
//
// A Client wraps a chain data source (in-process simulator or JSON-RPC
// endpoint), a public label directory, and a price oracle, and exposes
// the paper's pipeline: profit-sharing classification and snowball
// dataset construction (§5), sampling validation (§5.2), family
// clustering (§7), and the §6 measurement suite.
//
//	client := daas.New(source, labelDir, oracle)
//	study, err := client.Study()
//	// study.Dataset, study.Families, study.Victims, ...
package daas

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/integrity"
	"repro/internal/labels"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/prices"
	"repro/internal/report"
	"repro/internal/retry"
	"repro/internal/rpc"
)

// Re-exported core types, so downstream users import only this
// package.
type (
	// Dataset is the recovered DaaS dataset (paper Table 1).
	Dataset = core.Dataset
	// Stats summarizes dataset sizes.
	Stats = core.Stats
	// Split is one detected profit-sharing event.
	Split = core.Split
	// Classifier is the §5.1 Step 2 profit-sharing transaction
	// classifier.
	Classifier = core.Classifier
	// ValidationReport is the §5.2 sampling validation result.
	ValidationReport = core.ValidationReport
	// Family is one clustered DaaS family (§7.1).
	Family = cluster.Family
	// ChainSource abstracts chain access.
	ChainSource = core.ChainSource
	// VictimReport, OperatorReport, AffiliateReport and FamilyRow carry
	// the §6 measurement results.
	VictimReport    = measure.VictimReport
	OperatorReport  = measure.OperatorReport
	AffiliateReport = measure.AffiliateReport
	FamilyRow       = measure.FamilyRow
	// Totals is the §5.2 headline (operator/affiliate USD, victims).
	Totals = measure.Totals
	// RatioShare is one §4.3 ratio-distribution row.
	RatioShare = measure.RatioShare
)

// Client bundles the inputs of the measurement pipeline.
type Client struct {
	source core.ChainSource
	labels *labels.Directory
	oracle *prices.Oracle

	// Classifier lets callers tune ratio set and tolerance before
	// calling BuildDataset.
	Classifier Classifier
	// Concurrency sets the parallel frontier scanners and fetch workers
	// of the dataset build (0 or 1 = fully serial). The dataset is
	// byte-identical at any setting; concurrency only buys wall-clock
	// against high-latency sources.
	Concurrency int
	// CacheSize bounds the study's record store: the sharded
	// single-flight transaction+receipt cache on top of the client's
	// source stack (see NewStack), which the dataset build, validation,
	// clustering and measurement all read through. 0 (the default)
	// holds the whole study, so each record is fetched and checked
	// once; a positive size keeps at most that many entries (LRU), and
	// an evicted record is fetched and checked again when re-read. The
	// store holds only records the integrity layer settled, and never a
	// failure.
	CacheSize int
	// CheckpointPath, when set, makes BuildDataset persist its state
	// atomically to this file at iteration boundaries, so an
	// interrupted build can continue with Resume to a byte-identical
	// dataset.
	CheckpointPath string
	// Resume restores CheckpointPath (when the file exists) and
	// continues the build from it.
	Resume bool
	// MaxQuarantine, when positive, aborts the run once total
	// quarantine rejections exceed it (integrity.ErrBudgetExceeded) —
	// the -max-quarantine CLI knob.
	MaxQuarantine int64
	// Logger receives structured pipeline progress events (nil
	// discards them).
	Logger *obs.Logger
	// Metrics, when set, receives per-stage counters and latency
	// histograms from every pipeline layer; the chain source is then
	// transparently wrapped so per-method request metrics are recorded
	// whether it is in-process or remote.
	Metrics *obs.Registry
	// Spans, when set, records hierarchical tracing spans across the
	// dataset build.
	Spans *obs.Recorder

	// stackOnce latches the client's source stack: one record store
	// over one integrity layer serves every pipeline stage, so its
	// records, transaction pins and permanent quarantine persist from
	// build through clustering and measurement.
	stackOnce sync.Once
	sources   *Stack
	coverage  *core.Coverage
}

// New builds a client from explicit components.
func New(source core.ChainSource, dir *labels.Directory, oracle *prices.Oracle) *Client {
	return &Client{source: source, labels: dir, oracle: oracle}
}

// Dial connects to a JSON-RPC chain endpoint (see cmd/chainsim),
// downloading the public label directory from the same server. The
// connection retries transient failures under the default policy —
// live gateways shed load routinely, and a cold dial is exactly when a
// 503 is most likely.
func Dial(url string) (*Client, error) {
	rc := rpc.NewClient(url)
	rc.Retry = retry.Default()
	if _, err := rc.BlockNumber(); err != nil {
		return nil, fmt.Errorf("daas: connecting to %s: %w", url, err)
	}
	dir, err := rc.FetchLabels()
	if err != nil {
		return nil, fmt.Errorf("daas: fetching labels: %w", err)
	}
	return New(rc, dir, prices.New()), nil
}

// Oracle returns the client's price oracle for registration of token
// quotes.
func (c *Client) Oracle() *prices.Oracle { return c.oracle }

// Source returns the underlying chain source.
func (c *Client) Source() core.ChainSource { return c.source }

// Labels returns the public label directory.
func (c *Client) Labels() *labels.Directory { return c.labels }

// BuildDataset runs seed collection and snowball expansion (§5.1).
func (c *Client) BuildDataset() (*Dataset, error) {
	// Dial attaches the default retry policy before the caller can set
	// Metrics; wire the registry in now so daas_retry_* covers the RPC
	// transport too.
	if rc, ok := c.source.(*rpc.Client); ok && rc.Retry != nil && rc.Retry.Metrics == nil {
		rc.Retry.Metrics = c.Metrics
	}
	p := &core.Pipeline{
		Source:         c.stack().Cached(),
		Labels:         c.labels,
		Classifier:     c.Classifier,
		Concurrency:    c.Concurrency,
		CheckpointPath: c.CheckpointPath,
		Resume:         c.Resume,
		Quarantine:     c.stack().Checked.Quarantine(),
		Coverage:       c.coverageLedger(),
		Logger:         c.Logger,
		Metrics:        c.Metrics,
		Spans:          c.Spans,
	}
	return p.Build()
}

// stack lazily builds the client's chain-source stack.
func (c *Client) stack() *Stack {
	c.stackOnce.Do(func() {
		c.sources = NewStack(c.source, StackConfig{
			Metrics:       c.Metrics,
			CacheSize:     c.CacheSize,
			MaxQuarantine: c.MaxQuarantine,
		})
	})
	return c.sources
}

// coverageLedger lazily builds the client's completeness ledger.
func (c *Client) coverageLedger() *core.Coverage {
	if c.coverage == nil {
		c.coverage = core.NewCoverage()
	}
	return c.coverage
}

// Validate runs the §5.2 sampling validation over a dataset. Reviews
// read the study's record store, so a record proven rotten during the
// build is skipped (and counted) rather than re-trusted, and the
// strict re-classification sees the record the build admitted.
func (c *Client) Validate(ds *Dataset) (*ValidationReport, error) {
	v := core.Validator{Source: c.stack().Cached(), SamplePerAccount: 10}
	return v.Validate(ds)
}

// Cluster groups the dataset into DaaS families (§7.1). Families whose
// evidence touched quarantined records — during clustering itself or
// through a build-degraded operator — come back flagged Tainted.
func (c *Client) Cluster(ds *Dataset) ([]*Family, error) {
	degraded := make(map[ethtypes.Address]bool)
	for a := range c.coverageLedger().Stats().Degraded {
		degraded[a] = true
	}
	cl := cluster.Clusterer{
		Source:   c.stack().Cached(),
		Labels:   c.labels,
		Metrics:  c.Metrics,
		Degraded: degraded,
	}
	return cl.Cluster(ds)
}

// Quarantine exposes the shared integrity store (reason-coded
// rejection counts, permanent quarantines, export).
func (c *Client) Quarantine() *integrity.Quarantine {
	return c.stack().Checked.Quarantine()
}

// Coverage returns the completeness ledger of the most recent build.
func (c *Client) Coverage() core.CoverageStats {
	return c.coverageLedger().Stats()
}

// Manifest assembles the completeness manifest for a finished run.
// study may be nil when only a dataset was built.
func (c *Client) Manifest(study *Study) report.Manifest {
	q := c.Quarantine()
	cov := c.Coverage()
	m := report.Manifest{
		TxFetched:       cov.TxFetched,
		TxQuarantined:   cov.TxQuarantined,
		TxPermanent:     int64(q.PermanentCount()),
		Violations:      q.Counts(),
		AccountsScanned: cov.AccountsScanned,
	}
	for _, a := range cov.DegradedAccounts() {
		m.DegradedAccounts = append(m.DegradedAccounts, a.Hex())
	}
	m.AccountsDegraded = len(m.DegradedAccounts)
	if rc, ok := c.source.(*rpc.Client); ok {
		m.LabelsAccepted = rc.LabelsAccepted()
		m.LabelRejectReasons = rc.LabelRejects()
		for _, n := range m.LabelRejectReasons {
			m.LabelsRejected += n
		}
	} else if c.labels != nil {
		m.LabelsAccepted = int64(c.labels.Count())
	}
	if study != nil {
		m.FamiliesTotal = len(study.Families)
		for _, fam := range study.Families {
			if fam.Tainted {
				m.FamiliesTainted++
			}
		}
	}
	return m
}

// Study is the complete measurement result for one dataset build.
type Study struct {
	Dataset    *Dataset
	Validation *ValidationReport
	Families   []*Family
	FamilyRows []FamilyRow
	Totals     Totals
	Victims    VictimReport
	Operators  OperatorReport
	Affiliates AffiliateReport
	Ratios     []RatioShare
	// EtherscanCoverage is the §8.1 label-coverage fraction.
	EtherscanCoverage float64
}

// StudyOptions tune a full run.
type StudyOptions struct {
	// DatasetEnd is the inactivity cutoff for operator lifecycles;
	// defaults to the newest split timestamp.
	DatasetEnd time.Time
	// PrimaryContractTxs is the Table-2 primary-contract threshold
	// (default measure.MinPrimaryTxs).
	PrimaryContractTxs int
	// SkipValidation skips the §5.2 re-review (a strict
	// re-classification of every account's newest splits; benchmarks
	// of other stages may skip it).
	SkipValidation bool
}

// Study runs the full pipeline: dataset, validation, clustering, and
// every §6 analysis.
func (c *Client) Study() (*Study, error) {
	return c.StudyWith(StudyOptions{})
}

// StudyWith runs the full pipeline with options.
func (c *Client) StudyWith(opts StudyOptions) (*Study, error) {
	if c.oracle == nil {
		return nil, fmt.Errorf("daas: client has no price oracle")
	}
	ctx := context.Background()
	if c.Spans != nil {
		ctx = obs.WithRecorder(ctx, c.Spans)
	}
	ds, err := c.BuildDataset()
	if err != nil {
		return nil, fmt.Errorf("daas: building dataset: %w", err)
	}
	out := &Study{Dataset: ds}
	if !opts.SkipValidation {
		_, sp := obs.Start(ctx, "study.validate")
		out.Validation, err = c.Validate(ds)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("daas: validating: %w", err)
		}
	}
	_, sp := obs.Start(ctx, "study.cluster")
	out.Families, err = c.Cluster(ds)
	sp.SetAttr("families", len(out.Families))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("daas: clustering: %w", err)
	}
	_, sp = obs.Start(ctx, "study.measure")
	an := &measure.Analyzer{Source: c.stack().Cached(), Oracle: c.oracle, Labels: c.labels}
	corpus, err := an.BuildCorpus(ds)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("daas: measuring: %w", err)
	}
	end := opts.DatasetEnd
	if end.IsZero() {
		for _, splits := range ds.Splits {
			for _, sp := range splits {
				if sp.Time.After(end) {
					end = sp.Time
				}
			}
		}
	}
	threshold := opts.PrimaryContractTxs
	if threshold <= 0 {
		threshold = measure.MinPrimaryTxs
	}
	out.Totals = corpus.Totals()
	out.Victims = corpus.Victims()
	out.Operators = corpus.Operators(end)
	out.Affiliates = corpus.Affiliates()
	out.Ratios = corpus.RatioDistribution()
	out.FamilyRows = corpus.FamilyTable(out.Families, threshold)
	if c.labels != nil {
		out.EtherscanCoverage = corpus.LabelCoverage(func(a ethtypes.Address) bool {
			return c.labels.Has(a, labels.SourceEtherscan)
		})
	}
	return out, nil
}
