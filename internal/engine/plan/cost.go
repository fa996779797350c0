package plan

// Selectivity rules, in the classic System R tradition: exact formulas
// where statistics permit, fixed magic numbers where they don't. All
// estimates are clamped to [0,1]; the numbers only steer plan choice,
// so being wrong costs performance, never correctness.

// defaultSel is the selectivity assumed for range predicates on
// columns without numeric stats.
const defaultSel = 0.33

// Selectivity estimates the fraction of rows of scan that satisfy e,
// using cat for column statistics. stats may be nil for sub-terms.
func Selectivity(cat Catalog, scan int, e Expr) float64 {
	switch t := e.(type) {
	case Cmp:
		return cmpSelectivity(cat, scan, t)
	case Between:
		cs, ok := cat.ColStats(scan, t.Col)
		if !ok || !cs.Numeric {
			return defaultSel
		}
		lo, okLo := t.Lo.Float()
		hi, okHi := t.Hi.Float()
		if !okLo || !okHi {
			return defaultSel
		}
		return rangeFraction(cs, lo, hi)
	case And:
		return clampSel(Selectivity(cat, scan, t.L) * Selectivity(cat, scan, t.R))
	case Or:
		a := Selectivity(cat, scan, t.L)
		b := Selectivity(cat, scan, t.R)
		return clampSel(a + b - a*b)
	case Not:
		return clampSel(1 - Selectivity(cat, scan, t.E))
	}
	return 1
}

func cmpSelectivity(cat Catalog, scan int, c Cmp) float64 {
	cs, ok := cat.ColStats(scan, c.Col)
	switch c.Op {
	case "=":
		if ok && cs.NDV > 0 {
			return clampSel(1 / float64(cs.NDV))
		}
		return 0.1
	case "<>", "!=":
		if ok && cs.NDV > 0 {
			return clampSel(1 - 1/float64(cs.NDV))
		}
		return 0.9
	case "<", "<=":
		if ok && cs.Numeric {
			if v, okV := c.Val.Float(); okV {
				return rangeFraction(cs, cs.Min, v)
			}
		}
		return defaultSel
	case ">", ">=":
		if ok && cs.Numeric {
			if v, okV := c.Val.Float(); okV {
				return rangeFraction(cs, v, cs.Max)
			}
		}
		return defaultSel
	}
	return 1
}

// rangeFraction estimates the fraction of a numeric column's rows that
// fall in [lo, hi], assuming a uniform distribution over [Min, Max].
func rangeFraction(cs ColStats, lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	if lo < cs.Min {
		lo = cs.Min
	}
	if cs.Max < hi {
		hi = cs.Max
	}
	if hi < lo {
		return 0
	}
	width := cs.Max - cs.Min
	if !(width > 0) {
		// Single-valued (or empty) column: the range either covers the
		// value or it doesn't, and the clamps above already decided.
		return 1
	}
	return clampSel((hi - lo) / width)
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// JoinCard estimates the cardinality of an equi-join producing from
// left rows joined to right rows on columns with the given NDVs,
// using |L|·|R| / max(ndvL, ndvR, 1).
func JoinCard(left, right float64, ndvL, ndvR int64) float64 {
	d := int64(1)
	if ndvL > d {
		d = ndvL
	}
	if ndvR > d {
		d = ndvR
	}
	return left * right / float64(d)
}
