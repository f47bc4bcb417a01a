package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/climate"
	"repro/internal/models"
	"repro/internal/opt"
)

// tinyParamSizes returns the element count of every parameter tensor of
// both Tiny networks, in graph order.
func tinyParamSizes(t *testing.T) map[string][]int {
	t.Helper()
	cfg := models.Config{BatchSize: 1, InChannels: climate.NumChannels, NumClasses: 3,
		Height: tH, Width: tW, Seed: 99}
	tiramisu, err := models.BuildTiramisu(models.TinyTiramisu(cfg))
	if err != nil {
		t.Fatal(err)
	}
	deeplab, err := models.BuildDeepLab(models.TinyDeepLab(cfg))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]int{}
	for name, net := range map[string]*models.Network{"tiramisu": tiramisu, "deeplab": deeplab} {
		for _, p := range net.Graph.Params() {
			out[name] = append(out[name], p.Shape.NumElements())
		}
	}
	return out
}

// TestShardBoundsPartitionParameters: at every world size from 1 to 16, for
// both Tiny networks, the ownership ranges are contiguous and cover every
// tensor exactly once, and no rank's share exceeds ⌈total/ranks⌉ plus the
// largest tensor.
func TestShardBoundsPartitionParameters(t *testing.T) {
	for name, sizes := range tinyParamSizes(t) {
		total, largest := 0, 0
		for _, n := range sizes {
			total += n
			largest = max(largest, n)
		}
		for ranks := 1; ranks <= 16; ranks++ {
			b := shardBounds(sizes, ranks)
			if len(b) != ranks+1 || b[0] != 0 || b[ranks] != len(sizes) {
				t.Fatalf("%s at %d ranks: bounds %v do not span [0, %d]", name, ranks, b, len(sizes))
			}
			limit := (total+ranks-1)/ranks + largest
			for r := 0; r < ranks; r++ {
				if b[r] > b[r+1] {
					t.Fatalf("%s at %d ranks: bounds %v are not ordered", name, ranks, b)
				}
				share := 0
				for _, n := range sizes[b[r]:b[r+1]] {
					share += n
				}
				if share > limit {
					t.Errorf("%s at %d ranks: rank %d owns %d elements, limit %d", name, ranks, r, share, limit)
				}
			}
		}
	}
}

// TestShardedUpdateStepsEachTensorOnce runs 8 ranks with LARC and a
// gradient lag, so every optimizer layer holds state, and checks the
// sharded update's two promises: summed over ranks, each applied step
// updates every parameter element once (the replicated update did it
// eight times), and each rank's optimizer holds moments and queued
// gradients for the tensors it owns and no others.
func TestShardedUpdateStepsEachTensorOnce(t *testing.T) {
	const ranks, steps = 8, 4
	cfg := baseConfig(ranks, steps)
	cfg.UseLARC = true
	cfg.LARCTrust = 0.01
	cfg.GradientLag = 1

	var mu sync.Mutex
	calls := make([]int, ranks)
	elems := make([]int, ranks)
	stepped := make([][]string, ranks)
	states := make([]*opt.State, ranks)
	cfg.onOptimizerStep = func(rank int, ps []opt.Param, o opt.Stateful) {
		n := 0
		names := make([]string, len(ps))
		for i, p := range ps {
			n += p.Value.NumElements()
			names[i] = p.Name
		}
		st := o.CaptureState()
		mu.Lock()
		defer mu.Unlock()
		calls[rank]++
		elems[rank] += n
		stepped[rank] = names
		states[rank] = st
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedSteps != 0 {
		t.Fatalf("%d steps skipped; an FP32 run skips none", res.SkippedSteps)
	}

	params := res.Net.Graph.Params()
	sizes := make([]int, len(params))
	total := 0
	for i, p := range params {
		sizes[i] = p.Shape.NumElements()
		total += sizes[i]
	}
	updates := 0
	for r := range calls {
		if calls[r] != steps {
			t.Fatalf("rank %d stepped %d times, want %d (a rank that owns nothing still steps)", r, calls[r], steps)
		}
		updates += elems[r]
	}
	if updates != steps*total {
		t.Errorf("%d element updates over %d steps, want %d per step (the parameter count), got %.2f×",
			updates, steps, total, float64(updates)/float64(steps*total))
	}

	b := shardBounds(sizes, ranks)
	for r := 0; r < ranks; r++ {
		var want, wantMoments []string
		for _, p := range params[b[r]:b[r+1]] {
			want = append(want, p.Label)
			wantMoments = append(wantMoments, "m/"+p.Label, "v/"+p.Label)
		}
		sort.Strings(wantMoments)
		if got := fmt.Sprint(stepped[r]); got != fmt.Sprint(want) {
			t.Errorf("rank %d stepped %v, owns %v", r, got, want)
		}
		lag := states[r]
		if len(lag.Queue) != 1 {
			t.Fatalf("rank %d lag queue holds %d sets, want 1", r, len(lag.Queue))
		}
		var queued []string
		for _, s := range lag.Queue[0] {
			queued = append(queued, s.Name)
		}
		if fmt.Sprint(queued) != fmt.Sprint(want) {
			t.Errorf("rank %d queues gradients for %v, owns %v", r, queued, want)
		}
		adam := lag.Base.Base
		var moments []string
		for _, s := range adam.Slots {
			moments = append(moments, s.Name)
		}
		if fmt.Sprint(moments) != fmt.Sprint(wantMoments) {
			t.Errorf("rank %d holds moments %v, want %v", r, moments, wantMoments)
		}
	}
}

// TestOwnedStateKeepsOwnedEntries restores an SGD-based tree (velocity
// slots "v/<label>") onto a shard whose labels contain slashes: the view
// keeps exactly the owned velocities and queued gradients, and every
// queued set, so the lag queue's length survives a rank that owns nothing
// in it.
func TestOwnedStateKeepsOwnedEntries(t *testing.T) {
	slot := func(name string) opt.Slot { return opt.Slot{Name: name, Data: []float32{1}} }
	full := &opt.State{Kind: "lag",
		Queue: [][]opt.Slot{{slot("a/w"), slot("b/w"), slot("w")}, {slot("a/w"), slot("b/w"), slot("w")}},
		Base: &opt.State{Kind: "larc", Base: &opt.State{Kind: "sgd",
			Slots: []opt.Slot{slot("v/a/w"), slot("v/b/w"), slot("v/w")}}}}
	names := func(slots []opt.Slot) string {
		var out []string
		for _, s := range slots {
			out = append(out, s.Name)
		}
		return fmt.Sprint(out)
	}
	for _, tc := range []struct {
		owned      []string
		queue, sgd string
	}{
		{[]string{"b/w", "w"}, "[b/w w]", "[v/b/w v/w]"},
		{[]string{"w"}, "[w]", "[v/w]"},
		{nil, "[]", "[]"},
	} {
		owned := map[string]bool{}
		for _, n := range tc.owned {
			owned[n] = true
		}
		st := ownedState(full, owned)
		if len(st.Queue) != len(full.Queue) {
			t.Fatalf("owned %v: queue has %d sets, want %d", tc.owned, len(st.Queue), len(full.Queue))
		}
		for _, set := range st.Queue {
			if got := names(set); got != tc.queue {
				t.Errorf("owned %v: queued %s, want %s", tc.owned, got, tc.queue)
			}
		}
		if got := names(st.Base.Base.Slots); got != tc.sgd {
			t.Errorf("owned %v: velocities %s, want %s", tc.owned, got, tc.sgd)
		}
		if st.Kind != "lag" || st.Base.Kind != "larc" || st.Base.Base.Kind != "sgd" {
			t.Errorf("owned %v: kinds %s/%s/%s", tc.owned, st.Kind, st.Base.Kind, st.Base.Base.Kind)
		}
	}
	if len(full.Base.Base.Slots) != 3 || len(full.Queue[0]) != 3 {
		t.Fatal("ownedState modified the full state")
	}
}
