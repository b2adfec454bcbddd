package main

import (
	"fmt"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (exclusive method), the statistic
// the acceptance check of BENCHMARK.json is written in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// noise is the noise tool: it runs every workload (or just `only`) n times
// untraced, on seeds seed, seed+1, …, and prints for each end-to-end metric
// × workload the median, the quartiles, their distance as a share of the
// median (what a bound is judged against) and (max − min) ÷ median.
func noise(o runOpts, n int, only string) error {
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		runs := make(map[string][]float64)
		for i := 0; i < n; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			res, err := runWorkload(w.name, ro, false)
			if err != nil {
				return err
			}
			for _, m := range endToEnd {
				runs[m.name] = append(runs[m.name], res.metrics[m.name])
			}
			fmt.Printf("# %s seed %d: %v\n", w.name, ro.seed, res.metrics)
		}
		fmt.Printf("%-16s %-22s %12s %12s %12s %9s %9s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
		for _, m := range endToEnd {
			v := runs[m.name]
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			q1, q3 := quartiles(v)
			med := median(v)
			fmt.Printf("%-16s %-22s %12.4f %12.4f %12.4f %9.4f %9.4f %6.2f\n",
				w.name, m.name, med, q1, q3, ratio(q3-q1, med), ratio(s[len(s)-1]-s[0], med), m.bound)
		}
	}
	return nil
}
