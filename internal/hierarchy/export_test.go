package hierarchy

// Provider forces a sweep's row provider past the diameter probe, for the
// differential tests that pin both providers to byte-identical output.
type Provider = provider

// The providers: the probe (the production setting) and the two it
// chooses between.
const (
	Probed      = probed
	ScalarRows  = scalarProvider
	BatchedRows = batchProvider
)

// Force returns opts with the row provider forced to p.
func Force(opts Options, p Provider) Options {
	opts.force = p
	return opts
}
