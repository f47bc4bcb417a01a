// Command stormwatch is the streaming storm-analytics daemon: it trains a
// small model (or loads a checkpoint), then runs the live pipeline — a
// rate-controlled synthetic climate source feeding the tiled-inference
// server through a bounded, backpressure-aware frame queue, with the online
// tracker linking detections into tracks and emitting birth/death/merge
// events as the stream runs. SIGINT (or -duration elapsing) stops
// production and drains gracefully: every admitted frame is still
// segmented and tracked before the daemon exits.
//
// Usage:
//
//	stormwatch -fps 4 -duration 30s -policy degrade -profile diurnal
//	stormwatch -max-frames 24 -events events.jsonl        # bounded CI run
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/exaclim"
	"repro/internal/climate"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stormwatch: ")

	height := flag.Int("height", 64, "grid rows")
	width := flag.Int("width", 96, "grid columns")
	seed := flag.Int64("seed", 7, "generator seed")
	fps := flag.Float64("fps", 4, "base frame rate (frames per second)")
	duration := flag.Duration("duration", 0, "stop producing after this long (0: unbounded)")
	maxFrames := flag.Int("max-frames", 0, "stop after this many frames (0: unbounded); -duration and -max-frames may combine, first bound wins")
	profileName := flag.String("profile", "steady", "load profile: steady or diurnal")
	burstFactor := flag.Float64("burst-factor", 4, "diurnal peak rate as a multiple of -fps")
	burstPeriod := flag.Duration("burst-period", 10*time.Second, "diurnal cycle length")
	policyName := flag.String("policy", "block", "backpressure policy: block, drop-oldest, or degrade")
	queueDepth := flag.Int("queue", 4, "frame queue depth")
	minPixels := flag.Int("min-pixels", 4, "minimum component size (mask speckle filter)")
	trainSteps := flag.Int("train-steps", 8, "training steps for the model before streaming")
	replicas := flag.Int("replicas", 2, "inference server replicas")
	maxBatch := flag.Int("max-batch", 8, "tile batch cap per executor run")
	events := flag.String("events", "", "write tracker events as JSON lines to this file")
	vizDir := flag.String("viz-dir", "", "save overlay PNG snapshots into this directory")
	vizEvery := flag.Int("viz-every", 8, "frames between -viz-dir snapshots")
	flag.Parse()

	policy, err := stream.ParsePolicy(*policyName)
	if err != nil {
		log.Fatalf("-policy: %v", err)
	}
	profile, err := stream.ParseProfile(*profileName)
	if err != nil {
		log.Fatalf("-profile: %v", err)
	}
	if *duration <= 0 && *maxFrames <= 0 {
		log.Fatal("give -duration and/or -max-frames: an unbounded synthetic source cannot be planned")
	}

	// The sequence plans its storms up front, so it needs a frame horizon:
	// the worst-case frame count this run can consume (peak rate × wall
	// clock, plus slack for timer jitter).
	horizon := *maxFrames
	if *duration > 0 {
		peak := *fps
		if profile == exaclim.StreamDiurnal {
			peak *= *burstFactor
		}
		byTime := int(math.Ceil(duration.Seconds()*peak)) + 2*int(math.Ceil(peak)) + 16
		if horizon == 0 || byTime < horizon {
			horizon = byTime
		}
	}
	src, err := exaclim.SyntheticSequence(*height, *width, horizon, *seed)
	if err != nil {
		log.Fatal(err)
	}

	cfg := exaclim.StreamConfig{
		Source:      src,
		FPS:         *fps,
		MaxFrames:   horizon,
		Profile:     profile,
		BurstFactor: *burstFactor,
		BurstPeriod: *burstPeriod,
		Policy:      policy,
		QueueDepth:  *queueDepth,
		MinPixels:   *minPixels,
		VizDir:      *vizDir,
	}
	if *vizDir != "" {
		if err := os.MkdirAll(*vizDir, 0o755); err != nil {
			log.Fatal(err)
		}
		cfg.VizEvery = *vizEvery
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.EventWriter = f
	}

	model := trainModel(*trainSteps, *seed)
	watcher, err := exaclim.NewStormWatcher(model, cfg,
		exaclim.WithReplicas(*replicas),
		exaclim.WithMaxBatch(*maxBatch),
		exaclim.WithServeSegmentConfig(exaclim.SegmentConfig{Overlap: 3}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer watcher.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	log.Printf("streaming %d×%d frames at %g fps (%s profile, %s policy, queue %d)…",
		*height, *width, *fps, profile, policy, *queueDepth)
	res, err := watcher.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	printSummary(res, watcher)
}

// trainModel runs a short tiny-model training so the stream serves real
// predicted masks, mirroring stormstats -predict-steps.
func trainModel(steps int, seed int64) *exaclim.Model {
	const tile = 24
	exp, err := exaclim.New(
		exaclim.WithNetwork("tiramisu", exaclim.Tiny),
		exaclim.WithSyntheticData(tile, tile, 32, seed+1),
		exaclim.WithOptimizer("adam"),
		exaclim.WithLR(3e-3),
		exaclim.WithSteps(steps),
		exaclim.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("training %d steps before streaming…", steps)
	res, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return res.Model
}

func printSummary(res *exaclim.StreamResult, watcher *exaclim.StormWatcher) {
	st := res.Stats
	fmt.Printf("stream: %d produced, %d processed (%.2f fps effective), %d dropped, %d degraded over %s\n",
		st.Produced, st.Processed, st.EffectiveFPS, st.Dropped, st.Degraded, st.Elapsed.Round(time.Millisecond))
	fmt.Printf("tracks: %d births, %d deaths, %d merges; active at end TC %d / AR %d (peak %d / %d)\n",
		st.Births, st.Deaths, st.Merges, st.ActiveTC, st.ActiveAR, st.PeakActiveTC, st.PeakActiveAR)
	fmt.Printf("latency: p50 %s  p95 %s  p99 %s; track lifetime mean %.1f frames (p95 %.1f)\n",
		st.LatencyP50.Round(time.Microsecond), st.LatencyP95.Round(time.Microsecond),
		st.LatencyP99.Round(time.Microsecond), st.LifetimeMean, st.LifetimeP95)
	_, peak := watcher.QueueDepth()
	srv := watcher.ServerStats()
	fmt.Printf("server: %.1f tiles/s, mean batch %.1f, tile-queue peak %d; frame-queue peak %d\n",
		srv.TilesPerSec, srv.MeanBatch, srv.QueueDepthPeak, peak)
	for i, tr := range res.Tracks {
		if i >= 3 {
			fmt.Printf("  … %d more tracks\n", len(res.Tracks)-3)
			break
		}
		name := "TC"
		if tr.Class == climate.ClassAR {
			name = "AR"
		}
		dy, dx := tr.Displacement()
		fmt.Printf("  %s track: frames %d–%d (%d), drift (Δy %+.1f, Δx %+.1f), peak wind %.1f m/s\n",
			name, tr.Frames[0], tr.Frames[len(tr.Frames)-1], tr.Duration(), dy, dx, tr.PeakWind())
	}
}
