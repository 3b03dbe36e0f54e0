package obs

// Merge folds every metric in src into r: counters and gauges add their
// values, histograms merge bucket-by-bucket (identical geometry required,
// as stats.Histogram.Merge demands), and src's self-metrics (discarded
// counter deltas, tracked tracers) carry over. Families and children
// missing from r are created with src's help text, label names, and
// histogram constructor.
//
// This is how per-shard registries from a sharded run collapse into one
// serialized output: merging the shards in index order yields the same
// families, children, and values at any shard count, because each metric
// is owned by exactly one logical partition and addition is order-exact
// over the per-partition values.
//
// Merge must run with src quiescent (no concurrent writers) and must not
// run concurrently with a Merge in the opposite direction. Exemplars
// transfer with first-wins conflict resolution per bucket, so earlier
// sources (node 0 carries the tracer) keep their span links.
func (r *Registry) Merge(src *Registry) {
	if src == nil || src == r {
		return
	}
	src.walk(func(sf *family, kids []*child) {
		df := r.family(sf.name, sf.help, sf.kind, sf.labels, sf.newHist)
		for _, c := range kids {
			dc := df.get(c.values)
			switch sf.kind {
			case KindCounter:
				dc.ctr.Add(c.ctr.Value())
			case KindGauge:
				dc.gauge.Add(c.gauge.Value())
			case KindHistogram:
				dc.hist.merge(c.hist)
			}
		}
	})

	src.mu.Lock()
	srcNeg := src.negDeltas.Load()
	srcTracers := append([]*Tracer(nil), src.tracers...)
	src.mu.Unlock()
	r.negDeltas.Add(srcNeg)
	for _, t := range srcTracers {
		r.TrackTracer(t)
	}
}

// merge folds src into h: bucket counts add, and src's exemplars fill any
// bucket h has not already captured. Lock order is src before h; see
// Registry.Merge for the (single-threaded) usage contract.
func (h *Histogram) merge(src *Histogram) {
	src.mu.Lock()
	defer src.mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hist.Merge(src.hist)
	if len(src.exemplars) > 0 {
		if h.exemplars == nil {
			h.exemplars = map[float64]Exemplar{}
		}
		for b, ex := range src.exemplars {
			if _, have := h.exemplars[b]; !have {
				h.exemplars[b] = ex
			}
		}
	}
}
