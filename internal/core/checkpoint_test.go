package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// buildWithCheckpoint runs one checkpointed build over src and returns
// the exported dataset (nil on build failure, with the error).
func buildWithCheckpoint(t *testing.T, src core.ChainSource, path string, resume bool, reg *obs.Registry) ([]byte, error) {
	t.Helper()
	p := &core.Pipeline{
		Source:         src,
		Labels:         sharedWorld.Labels,
		CheckpointPath: path,
		Resume:         resume,
		Metrics:        reg,
	}
	ds, err := p.Build()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), nil
}

// TestCheckpointResumeByteIdentical is the acceptance criterion: a
// build killed mid-run by a planted fatal fault resumes from its
// checkpoint to a byte-identical exported dataset. The kill is planted
// at several depths — before any checkpoint exists, right after the
// seed checkpoint, and deep into expansion.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	w := sharedWorld
	baseline := exportJSON(t, w, 1, 0)

	// Count the total source ops of a clean build so the kill points
	// cover the whole run, not just its head.
	counter := faults.NewInjector(faults.Plan{Seed: 1}, nil)
	if _, err := (&core.Pipeline{
		Source: faults.WrapSource(core.LocalSource{Chain: w.Chain}, counter),
		Labels: w.Labels,
	}).Build(); err != nil {
		t.Fatalf("op-counting build failed: %v", err)
	}
	total := counter.Ops()
	if total < 8 {
		t.Fatalf("test world too small: %d source ops", total)
	}

	// Kill points span the run: mid-seed (resume degrades to a fresh
	// build) through the final op (resume picks up a deep checkpoint).
	kills := []int64{total / 8, total / 4, total / 2, total - 1}
	sawRealResume := false
	for _, kill := range kills {
		path := filepath.Join(t.TempDir(), "build.ckpt")

		inj := faults.NewInjector(faults.Plan{Seed: 1, FatalAfterOps: kill}, nil)
		faulted := faults.WrapSource(core.LocalSource{Chain: w.Chain}, inj)
		if _, err := buildWithCheckpoint(t, faulted, path, false, nil); err == nil {
			t.Fatalf("kill at op %d: build survived its fatal fault", kill)
		}
		_, statErr := os.Stat(path)
		hadCheckpoint := statErr == nil

		reg := obs.NewRegistry()
		got, err := buildWithCheckpoint(t, core.LocalSource{Chain: w.Chain}, path, true, reg)
		if err != nil {
			t.Fatalf("kill at op %d: resume failed: %v", kill, err)
		}
		if !bytes.Equal(got, baseline) {
			t.Errorf("kill at op %d: resumed export differs from fault-free build (%d vs %d bytes)",
				kill, len(got), len(baseline))
		}
		resumes := reg.Counter("daas_checkpoint_resumes_total", "").Value()
		if want := map[bool]uint64{true: 1, false: 0}[hadCheckpoint]; resumes != want {
			t.Errorf("kill at op %d: resumes_total = %d, want %d (checkpoint on disk: %v)",
				kill, resumes, want, hadCheckpoint)
		}
		sawRealResume = sawRealResume || hadCheckpoint
	}
	if !sawRealResume {
		t.Error("no kill point left a checkpoint behind; the resume path never ran")
	}
}

// TestResumeWithoutCheckpointRunsFresh: -resume with no checkpoint on
// disk degrades to a fresh build and writes checkpoints as it goes.
func TestResumeWithoutCheckpointRunsFresh(t *testing.T) {
	w := sharedWorld
	baseline := exportJSON(t, w, 1, 0)
	path := filepath.Join(t.TempDir(), "none.ckpt")

	reg := obs.NewRegistry()
	got, err := buildWithCheckpoint(t, core.LocalSource{Chain: w.Chain}, path, true, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, baseline) {
		t.Error("fresh resume-mode build differs from baseline")
	}
	if n := reg.Counter("daas_checkpoint_resumes_total", "").Value(); n != 0 {
		t.Errorf("resumes_total = %d, want 0 (no checkpoint existed)", n)
	}
	if n := reg.Counter("daas_checkpoint_writes_total", "").Value(); n == 0 {
		t.Error("no checkpoints written during a checkpointed build")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("checkpoint file missing after build: %v", err)
	}
}

// TestResumeFromCompletedBuildIsIdentical: resuming a checkpoint whose
// build already finished re-runs only the final (empty-frontier or
// no-change) check and exports the same bytes.
func TestResumeFromCompletedBuildIsIdentical(t *testing.T) {
	w := sharedWorld
	path := filepath.Join(t.TempDir(), "done.ckpt")
	first, err := buildWithCheckpoint(t, core.LocalSource{Chain: w.Chain}, path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildWithCheckpoint(t, core.LocalSource{Chain: w.Chain}, path, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Error("re-resumed export differs from completed build")
	}
}

// TestCheckpointVersionMismatchRefused: a checkpoint from a different
// format version fails the resume loudly instead of building on it.
func TestCheckpointVersionMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte(`{"version": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := buildWithCheckpoint(t, core.LocalSource{Chain: sharedWorld.Chain}, path, true, nil)
	if err == nil {
		t.Fatal("version-999 checkpoint accepted")
	}
}

// TestPipelineRefusesRadarCheckpoint: a version-3 radar checkpoint is
// not a pipeline checkpoint, so resuming a build from one fails.
func TestPipelineRefusesRadarCheckpoint(t *testing.T) {
	ds, err := (&core.Pipeline{Source: core.LocalSource{Chain: sharedWorld.Chain}, Labels: sharedWorld.Labels}).Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "radar.ckpt")
	blob, err := core.MarshalRadarCheckpoint(&core.RadarCheckpoint{Dataset: ds, Head: 1, Radar: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.WriteCheckpointFile(path, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := buildWithCheckpoint(t, core.LocalSource{Chain: sharedWorld.Chain}, path, true, nil); err == nil {
		t.Fatal("pipeline resumed from a version-3 radar checkpoint")
	}
}

// TestRadarLoaderRefusesPipelineCheckpoint: the radar loader refuses a
// version-2 pipeline checkpoint.
func TestRadarLoaderRefusesPipelineCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pipeline.ckpt")
	if _, err := buildWithCheckpoint(t, core.LocalSource{Chain: sharedWorld.Chain}, path, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadRadarCheckpoint(path); err == nil {
		t.Fatal("radar loader accepted a version-2 pipeline checkpoint")
	}
}

// TestCheckpointedBuildExportUnchanged: turning checkpointing on must
// not perturb the dataset itself.
func TestCheckpointedBuildExportUnchanged(t *testing.T) {
	w := sharedWorld
	baseline := exportJSON(t, w, 1, 0)
	got, err := buildWithCheckpoint(t, core.LocalSource{Chain: w.Chain},
		filepath.Join(t.TempDir(), "plain.ckpt"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, baseline) {
		t.Error("checkpointed build export differs from plain build")
	}
}
