package flood

// setDeferProb pins the shared defer-to-reception probability. Zeroing it
// removes the protocols' only randomness, putting serial and sharded
// executions on a common deterministic subspace the metamorphic tests
// compare bit-for-bit. Returns a restore function.
func setDeferProb(p float64) func() {
	old := deferProb
	deferProb = p
	return func() { deferProb = old }
}
