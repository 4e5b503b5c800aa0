package stats_test

import (
	"fmt"

	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/unit"
)

// The paper's core decision rule: a one-tailed binomial test on matched
// pairs plus the 52% practical-importance bar.
func ExampleBinomialTest() {
	// Table 1's peak-usage row: 70.3% of ~1000 pairs.
	res, err := stats.BinomialTest(703, 1000, 0.5, stats.TailGreater)
	if err != nil {
		panic(err)
	}
	fmt.Println(res)
	fmt.Println("significant:", res.Assess().Significant())
	// Output:
	// 703/1000 (70.3%), p=6.75e-39
	// significant: true
}

// The practical-importance rule rejects statistically significant but
// trivially small deviations.
func ExampleBinomialResult_Assess() {
	res, _ := stats.BinomialTest(51000, 100000, 0.5, stats.TailGreater)
	s := res.Assess()
	fmt.Printf("statistical=%v practical=%v significant=%v\n",
		s.Statistical, s.Practical, s.Significant())
	// Output:
	// statistical=true practical=false significant=false
}

// Capacity classes are the paper's (100 kbps × 2^(k−1), 100 kbps × 2^k]
// service bins.
func ExampleClassOf() {
	c := stats.ClassOf(unit.MbpsOf(10))
	fmt.Println(c)
	fmt.Println(c.Contains(unit.MbpsOf(12.8)), c.Contains(unit.MbpsOf(12.9)))
	// Output:
	// (6.4 Mbps, 12.8 Mbps]
	// true false
}

// ECDFs drive every "CDF of users" figure.
func ExampleECDF() {
	e, _ := stats.NewECDF([]float64{1, 2, 2, 4, 8})
	fmt.Printf("median = %.0f, p90 = %.1f\n", e.Quantile(0.5), e.Quantile(0.9))
	// Output:
	// median = 2, p90 = 6.4
}
