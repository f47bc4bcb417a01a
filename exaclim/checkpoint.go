package exaclim

import (
	"os"

	"repro/internal/models"
)

// Checkpoint plumbing exposed at the public API: typed load failures for
// errors.Is and the directory helpers operators script recovery with. The
// snapshot files themselves are written by WithCheckpointEvery and consumed
// by WithResume/WithElasticResume; see those options for the format
// guarantees.

// Typed checkpoint-load failures. A snapshot that cannot be trusted is
// never partially applied: Run (under WithResume) and LatestCheckpoint
// return one of these, matched with errors.Is.
var (
	// ErrCheckpointFormat: the file is not a training snapshot.
	ErrCheckpointFormat = models.ErrSnapshotFormat
	// ErrCheckpointVersion: written by an incompatible snapshot version.
	ErrCheckpointVersion = models.ErrSnapshotVersion
	// ErrCheckpointTruncated: the file is shorter than its header promises
	// (partial write or torn copy).
	ErrCheckpointTruncated = models.ErrSnapshotTruncated
	// ErrCheckpointCorrupt: full length but the checksum does not match.
	ErrCheckpointCorrupt = models.ErrSnapshotCorrupt
	// ErrNoCheckpoint: the directory holds no committed snapshot.
	ErrNoCheckpoint = models.ErrNoSnapshot
	// ErrCheckpointRankMismatch: the snapshot disagrees with the run's
	// world shape — resuming at a different rank count without
	// WithElasticResume, or a global batch the snapshot does not carry.
	ErrCheckpointRankMismatch = models.ErrSnapshotRankMismatch
)

// LatestCheckpoint returns the newest committed snapshot in a checkpoint
// directory and the training step it was taken at. Orphaned *.tmp files
// from an interrupted writer are ignored. Returns ErrNoCheckpoint when the
// directory holds none.
func LatestCheckpoint(dir string) (path string, step uint64, err error) {
	return models.LatestSnapshot(dir)
}

// CheckpointInfo is a verified snapshot's metadata — what an operator needs
// to decide how (and whether) a recovery can use it.
type CheckpointInfo struct {
	// Path is the snapshot file the metadata describes (resolved to the
	// latest committed file when a directory was given).
	Path string
	// Step is the training step the snapshot was taken at.
	Step uint64
	// Ranks is the world size that wrote the snapshot. With
	// WithElasticResume a run may resume it at any world size. Zero means
	// a weights-only checkpoint (Model.SaveCheckpoint): it serves and
	// warm-starts, but cannot be resumed.
	Ranks int
	// GlobalBatch is the number of data columns (samples per step) the
	// trajectory is defined over. Legacy snapshots report their rank count
	// (one column per rank).
	GlobalBatch int
	// Seed is the experiment seed the run must match to resume.
	Seed int64
	// SizeBytes is the file size on disk.
	SizeBytes int64
	// Compacted reports the delta encoding (WithSnapshotCompaction):
	// weights compressed losslessly, Adam moments quantized.
	Compacted bool
}

// InspectCheckpoint fully reads and checksums a snapshot file (or, given a
// directory, its latest committed snapshot) without applying it, and
// returns its metadata. This is the operator's pre-flight check before
// relying on a snapshot for recovery — in particular Ranks/GlobalBatch/Seed
// say whether a changed allocation can resume it (see WithElasticResume).
// Failures are the typed errors above.
func InspectCheckpoint(path string) (*CheckpointInfo, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		latest, _, err := models.LatestSnapshot(path)
		if err != nil {
			return nil, err
		}
		path = latest
	}
	st, err := models.LoadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	info := &CheckpointInfo{
		Path:        path,
		Step:        st.Step,
		Ranks:       st.Ranks,
		GlobalBatch: st.GlobalBatch,
		Seed:        st.Seed,
		Compacted:   st.Compact,
	}
	if info.GlobalBatch == 0 {
		info.GlobalBatch = st.Ranks
	}
	if fi, err := os.Stat(path); err == nil {
		info.SizeBytes = fi.Size()
	}
	return info, nil
}

// VerifyCheckpoint is InspectCheckpoint under its historical name: it fully
// reads and checksums a snapshot (or a directory's latest committed one)
// without applying it, reporting the metadata on success.
func VerifyCheckpoint(path string) (*CheckpointInfo, error) {
	return InspectCheckpoint(path)
}
