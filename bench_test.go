package expelliarmus

// Root-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation (Sec. VI of PAPER.md), plus the
// ablations A1–A3 (README, "Benchmarks and examples"). Each benchmark
// regenerates its experiment and reports the headline quantities as
// custom metrics so `go test -bench=. -benchmem` prints the reproduced
// results alongside runtime cost. cmd/expelbench renders the same
// experiments as full tables.

import (
	"testing"

	"expelliarmus/internal/bench"
)

// benchRunner caches built evaluation images across all benchmarks.
var benchRunner = bench.NewRunner()

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := benchRunner.TableII()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 19 {
			b.Fatalf("rows = %d", len(tbl.Rows))
		}
	}
}

func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.Fig3a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Final("qcow2"), "qcow2_GB")
		b.ReportMetric(fig.Final("qcow2+gzip"), "gzip_GB")
		b.ReportMetric(fig.Final("mirage"), "mirage_GB")
		b.ReportMetric(fig.Final("hemera"), "hemera_GB")
		b.ReportMetric(fig.Final("expelliarmus"), "expel_GB")
	}
}

func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.Fig3b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Final("qcow2"), "qcow2_GB")
		b.ReportMetric(fig.Final("qcow2+gzip"), "gzip_GB")
		b.ReportMetric(fig.Final("mirage"), "mirage_GB")
		b.ReportMetric(fig.Final("expelliarmus"), "expel_GB")
	}
}

func BenchmarkFig3c(b *testing.B) {
	// The paper's full 40-build series.
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.Fig3c(40)
		if err != nil {
			b.Fatal(err)
		}
		q := fig.Final("qcow2")
		g := fig.Final("qcow2+gzip")
		m := fig.Final("mirage")
		e := fig.Final("expelliarmus")
		b.ReportMetric(q, "qcow2_GB")
		b.ReportMetric(g, "gzip_GB")
		b.ReportMetric(m, "mirage_GB")
		b.ReportMetric(e, "expel_GB")
		// §VI-B headline ratios (paper: 16x and 2.2x).
		b.ReportMetric(g/e, "gzip_over_expel_x")
		b.ReportMetric(m/e, "mirage_over_expel_x")
	}
}

func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.Fig4a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Final("expelliarmus"), "expel_IDE_s")
		b.ReportMetric(fig.Final("mirage"), "mirage_IDE_s")
		b.ReportMetric(fig.Final("hemera"), "hemera_IDE_s")
	}
}

func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.Fig4b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Final("expelliarmus"), "expel_Elastic_s")
		b.ReportMetric(fig.Final("semantic"), "semantic_Elastic_s")
		b.ReportMetric(fig.Final("mirage"), "mirage_Elastic_s")
	}
}

func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.Fig5a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Final("total"), "elastic_retrieval_s")
		b.ReportMetric(fig.Final("import"), "elastic_import_s")
		b.ReportMetric(fig.Final("base-image-copy"), "elastic_copy_s")
	}
}

func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchRunner.Fig5b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Final("mirage"), "mirage_Elastic_s")
		b.ReportMetric(fig.Final("hemera"), "hemera_Elastic_s")
		b.ReportMetric(fig.Final("expelliarmus"), "expel_Elastic_s")
	}
}

func BenchmarkAblationChunking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner.AblationChunking(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMasterGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner.AblationMasterGraph([]int{1, 5, 10, 19}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBaseSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner.AblationBaseSelection(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishRedis measures the real CPU cost of one full semantic
// publish (graph build, similarity, repack, base selection) on a warm
// repository — the library's own performance, independent of the modeled
// testbed seconds.
func BenchmarkPublishRedis(b *testing.B) {
	sys := New()
	mini, err := sys.BuildImage("Mini")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Publish(mini); err != nil {
		b.Fatal(err)
	}
	redis, err := sys.BuildImage("Redis")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Publish(redis); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrieveRedis measures the real CPU cost of one assembly.
func BenchmarkRetrieveRedis(b *testing.B) {
	sys := New()
	redis, err := sys.BuildImage("Redis")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Publish(redis); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Retrieve("Redis"); err != nil {
			b.Fatal(err)
		}
	}
}
