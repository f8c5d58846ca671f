package homeo_test

import (
	"testing"

	"repro/homeo"
)

// BenchmarkUnitMigration measures the cost of re-homing one treaty unit:
// each iteration is a full migration round — freeze the unit under a
// round grant, fold its cut, install the fold at every site, repair and
// distribute the treaty configuration. The ns/op is the unit's pause
// window (it serves no commits between freeze and release), so it bounds
// the worst-case submission stall a migration can inject. Run serially;
// BENCH_elastic.json records the machine with the numbers.
func BenchmarkUnitMigration(b *testing.B) {
	c, _ := benchCluster(b, homeo.Options{Runtime: homeo.RuntimeSim})
	// One warm-up migration so pools and the treaty solver cache are hot.
	if err := c.MigrateUnit(0, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MigrateUnit(0, i%2); err != nil {
			b.Fatal(err)
		}
	}
}
