package engine

// NewReference exposes the test-only reference evaluator to the external
// engine_test package, whose benchmarks build their workloads with
// internal/benchwork (which imports this package).
var NewReference = newReference
