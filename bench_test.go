package expelliarmus

// Root-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation (Sec. VI of PAPER.md), plus the
// ablations A1–A3 (README, "Benchmarks and examples"). Each benchmark
// regenerates its experiment and reports the headline quantities as
// custom metrics so `go test -bench=. -benchmem` prints the reproduced
// results alongside runtime cost. cmd/expelbench renders the same
// experiments as full tables.

import (
	"bytes"
	"fmt"
	"testing"

	"expelliarmus/internal/bench"
	"expelliarmus/internal/wire"
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

// BenchmarkPublishVariant measures the server's publish path: a catalog
// variant carrying 64 KiB of its own user data is decoded from its wire
// envelope, published onto a disk store that already holds the catalog
// (so its packages and base dedupe), and synced. Each iteration decodes
// the envelope afresh into pooled chunks, publishes it under a new name,
// as the benchmark's publish_churn clients do, and releases the chunks,
// as the server does.
func BenchmarkPublishVariant(b *testing.B) {
	sys, err := OpenAt(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for _, name := range Templates() {
		img, err := sys.BuildImage(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Publish(img); err != nil {
			b.Fatal(err)
		}
	}
	variant, err := sys.BuildImage("Redis")
	if err != nil {
		b.Fatal(err)
	}
	variant.inner.Name = "Redis-variant"
	if err := variant.WriteUserFile("/home/user/variant.bin", make([]byte, 64<<10)); err != nil {
		b.Fatal(err)
	}
	var envelope bytes.Buffer
	if err := variant.EncodeWire(&envelope); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, meta, section, err := wire.DecodeImage(bytes.NewReader(envelope.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		img.Name = fmt.Sprintf("Redis-variant-%d", i)
		_, err = sys.sys.PublishWith(img, meta)
		section.Release()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoveSurvivors measures Remove on a populated master: the 19
// Table II images cluster on one base, so removing a variant of one of
// them rebuilds the master from the 19 survivors' primaries. Each
// iteration removes the variant and publishes it again.
func BenchmarkRemoveSurvivors(b *testing.B) {
	sys := New()
	for _, name := range Templates() {
		img, err := sys.BuildImage(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Publish(img); err != nil {
			b.Fatal(err)
		}
	}
	variant, err := sys.BuildImage("Redis")
	if err != nil {
		b.Fatal(err)
	}
	variant.inner.Name = "Redis-variant"
	if err := variant.WriteUserFile("/home/user/variant.bin", make([]byte, 64<<10)); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Publish(variant); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Remove("Redis-variant"); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Publish(variant); err != nil {
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
