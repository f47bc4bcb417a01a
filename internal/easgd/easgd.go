// Package easgd holds the update rule of elastic averaging SGD (Zhang,
// Choromanska & LeCun, 2014), the scheme the paper's Section V-B4 cites as
// the established larger-lag relative of its gradient-lag optimizer.
// Workers run independent SGD on their own parameter copies and, every
// communication period τ, exert an elastic force pulling them toward a
// shared center variable (and the center toward them). Communication drops
// by a factor of τ versus synchronous all-reduce training, at the cost of
// staler coordination — the same throughput/staleness trade the paper
// makes with lag 1.
//
// The synchronous, symmetric variant is used: the center is replicated on
// every rank and updated identically from an all-reduce of the worker
// parameters, so no parameter server is needed and the run is
// deterministic. The core trainer's ChurnEASGD mode drives it; its golden
// trajectory and elastic tests cover the rule.
package easgd

// ElasticUpdate applies the symmetric EASGD synchronization for one
// parameter block: sum must hold the all-reduced pre-update worker
// parameters Σᵢ xᵢ over n workers, center the replicated center variable
// x̃, and alpha the moving rate α = η·ρ. The center moves toward the worker
// mean (x̃ ← x̃ + Σᵢ α(xᵢ − x̃)) and the local worker is pulled toward the
// old center — the elastic force in both directions.
func ElasticUpdate(x, center, sum []float32, n int, alpha float32) {
	for i := range x {
		old := center[i]
		center[i] += alpha * (sum[i] - float32(n)*old)
		x[i] -= alpha * (x[i] - old)
	}
}
