package simnet

import "testing"

func TestFaultFabricScheduleAndShrink(t *testing.T) {
	base := NewTwoLevelFabric(4, 2,
		LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
		LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9})
	ff := NewFaultFabric(base)
	if ff.Size() != 8 || ff.RanksPerNode() != 2 {
		t.Fatalf("wrapper size=%d rpn=%d, want 8/2", ff.Size(), ff.RanksPerNode())
	}

	ff.FailNode(1, 5)
	// Both ranks on node 1 report failed from step 5 onwards; nobody else.
	for r := 0; r < 8; r++ {
		onFailed := r/2 == 1
		if ff.FailedAsOf(r, 4) {
			t.Fatalf("rank %d failed before the scheduled step", r)
		}
		if got := ff.FailedAsOf(r, 5); got != onFailed {
			t.Fatalf("rank %d FailedAsOf(5)=%v, want %v", r, got, onFailed)
		}
		if got := ff.FailedAsOf(r, 9); got != onFailed {
			t.Fatalf("rank %d FailedAsOf(9)=%v, want %v", r, got, onFailed)
		}
	}

	surv := ff.Shrink()
	if surv.Size() != 6 {
		t.Fatalf("survivors=%d, want 6", surv.Size())
	}
	// Survivor ranks renumber densely but keep their base topology: the
	// first two survivors share old node 0, the next two old node 2.
	wantNodes := []int{0, 0, 2, 2, 3, 3}
	for r, want := range wantNodes {
		if got := surv.NodeOf(r); got != want {
			t.Fatalf("survivor rank %d on node %d, want %d", r, got, want)
		}
	}
	// Fresh schedule: nothing is failed in the shrunk view.
	for r := 0; r < surv.Size(); r++ {
		if surv.FailedAsOf(r, 1000) {
			t.Fatalf("survivor rank %d reports failed in the fresh view", r)
		}
	}
	// Intra-node transfers stay faster than inter-node after renumbering.
	intra := surv.TransferSeconds(0, 1, 1<<20)
	inter := surv.TransferSeconds(1, 2, 1<<20)
	if intra >= inter {
		t.Fatalf("intra-node %.3g not faster than inter-node %.3g after shrink", intra, inter)
	}

	// A second failure against the shrunk view composes.
	surv.FailNode(0, 3)
	if !surv.FailedAsOf(0, 3) || surv.FailedAsOf(2, 3) {
		t.Fatal("failure scheduling against the shrunk view misattributed")
	}
	if surv.Shrink().Size() != 4 {
		t.Fatalf("second shrink left %d ranks, want 4", surv.Shrink().Size())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("FailNode out of range must panic")
		}
	}()
	ff.FailNode(4, 0)
}

// TestFaultFabricShrinkToNothing: when every node failed, the survivor
// world is empty, not the whole base fabric again.
func TestFaultFabricShrinkToNothing(t *testing.T) {
	ff := NewFaultFabric(NewTwoLevelFabric(2, 1,
		LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
		LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9}))
	ff.FailNode(0, 3)
	ff.FailNode(1, 3)
	if n := ff.Shrink().Size(); n != 0 {
		t.Fatalf("survivors=%d after every node failed, want 0", n)
	}
}
