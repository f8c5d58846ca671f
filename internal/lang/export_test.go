package lang

// The footprint laws, for the tests of package lang_test, which can import
// the workloads that import this package.
var (
	CheckFootprintLaws = checkFootprintLaws
	CheckRewriteLaw    = checkRewriteLaw
)
