package sim

// Test-only exports: the statistical tests exercise the unexported
// counter-based generators directly.
var (
	ArbKeyForTest    = arbKey
	ArbStreamForTest = arbStream
)

// SetLegacyInjectForTest disables (v=true) or re-enables (v=false) the
// InjectionPlanner release queue, restoring the legacy full pending
// sweep. Takes effect at the next Reset — call it before Reset(seed) so
// the run starts under the chosen injection path. The differential
// harness uses it to assert the two paths commit byte-identical traces.
func SetLegacyInjectForTest(e *Engine, v bool) { e.legacyInject = v }
