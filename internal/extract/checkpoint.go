// Extraction checkpoints. A multi-hour rowhammer campaign that dies at
// 90% must not restart from zero: the checkpoint captures everything a
// resumed run needs to continue as if never interrupted — the tensors
// already extracted, the Stats accounting, and the channel position
// (meters, simulated clock, noise-stream state). Granularity is one
// tensor: Run saves after every completed tensor, so at most one
// tensor's reads are in flight and none are ever re-paid.
//
// The format is gob (the same stdlib-only serialization the zoo store
// uses), written atomically: encode to a temp file in the target
// directory, then rename over the destination, so a kill mid-write
// leaves the previous checkpoint intact.
package extract

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"decepticon/internal/fsatomic"
	"decepticon/internal/sidechannel"
)

// checkpointVersion guards the on-disk layout. Version 2 added the
// information-ordered scheduler's estimator state (Sched): a v1 snapshot
// predates the scheduler and cannot guarantee a byte-identical resume
// under it, so version skew fails loudly instead of degrading silently.
const checkpointVersion = 2

// checkpointTensor is one completed tensor's extracted data.
type checkpointTensor struct {
	Name string
	Data []float32
}

// Checkpoint is the serializable state of a partially-run extraction.
type Checkpoint struct {
	Version int
	// Complete marks a finished extraction: resuming one returns the
	// stored result without touching the channel.
	Complete bool
	// PreloopDone records that the pre-loop stop check already ran (and
	// did not stop), so a resumed run neither repeats nor skips it.
	PreloopDone bool
	// LayersDone counts fully processed entries of the layer schedule;
	// Tensors may additionally hold completed tensors of the next,
	// partially-done layer.
	LayersDone int
	Tensors    []checkpointTensor
	Stats      Stats
	Channel    sidechannel.ChannelState
	// Sched is the adaptive-vote estimator position (zero when the
	// scheduler is off). The scheduler's read widths are a pure function
	// of this state, so restoring it keeps a resumed run's oracle access
	// sequence byte-identical to an uninterrupted one.
	Sched SchedulerState
	// Compatibility guards: a resume against a different victim shape or
	// configuration is attacker/operator error and must fail loudly.
	NumLabels   int
	LayersTotal int
}

// writeCheckpoint atomically persists ck at path (fsatomic temp-file +
// rename, the same discipline as the zoo store and the service store).
func writeCheckpoint(path string, ck *Checkpoint) error {
	err := fsatomic.Write(path, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(ck)
	})
	if err != nil {
		return fmt.Errorf("extract: checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint loads a checkpoint from path.
func readCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck := &Checkpoint{}
	if err := gob.NewDecoder(f).Decode(ck); err != nil {
		return nil, fmt.Errorf("extract: checkpoint decode %s: %w", path, err)
	}
	return ck, nil
}

// loadCheckpoint restores the extractor's checkpoint when Resume is set:
// nil (no error) when resuming is off or no file exists yet, an error
// when the file is unreadable or was written for a different extraction
// shape. cloneParams maps tensor names to the clone's buffers, used to
// validate every stored tensor before any of them is applied.
func (e *Extractor) loadCheckpoint(cloneParams map[string][]float32, numLabels int) (*Checkpoint, error) {
	if e.CheckpointPath == "" || !e.Resume {
		return nil, nil
	}
	ck, err := readCheckpoint(e.CheckpointPath)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("extract: checkpoint %s: version %d, want %d", e.CheckpointPath, ck.Version, checkpointVersion)
	}
	if ck.NumLabels != numLabels || ck.LayersTotal != e.Pre.Layers {
		return nil, fmt.Errorf(
			"extract: checkpoint %s was written for a different victim shape (%d labels / %d layers, want %d / %d)",
			e.CheckpointPath, ck.NumLabels, ck.LayersTotal, numLabels, e.Pre.Layers)
	}
	for _, t := range ck.Tensors {
		dst, ok := cloneParams[t.Name]
		if !ok {
			return nil, fmt.Errorf("extract: checkpoint %s holds unknown tensor %q", e.CheckpointPath, t.Name)
		}
		if len(dst) != len(t.Data) {
			return nil, fmt.Errorf("extract: checkpoint %s tensor %q has %d weights, clone expects %d",
				e.CheckpointPath, t.Name, len(t.Data), len(dst))
		}
	}
	return ck, nil
}
