package workload

import "math"

// Zipf draws values in [0, n) with frequency proportional to
// 1/(rank+1)^exponent, the skewed access pattern typical of the paper's
// "high-density" business data (a few hot customers/products) and of
// clickstream URL popularity.  It uses the rejection-inversion method of
// Hörmann & Derflinger, so setup is O(1) and draws are O(1) expected.
type Zipf struct {
	rng         *RNG
	n           float64
	exponent    float64
	oneMinusExp float64
	hIntegralX1 float64
	hIntegralN  float64
	accept      float64
}

// NewZipf returns a Zipf generator over [0, n) with exponent s > 0
// (s == 1 is nudged slightly for numerical stability).
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("workload: Zipf needs n > 0")
	}
	if s <= 0 {
		panic("workload: Zipf needs s > 0")
	}
	if s == 1 {
		s = 1.0000001
	}
	z := &Zipf{rng: rng, n: float64(n), exponent: s, oneMinusExp: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(z.n + 0.5)
	z.accept = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

// hIntegral is the antiderivative of h(x) = x^(-exponent).
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusExp*logX) * logX
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.exponent * math.Log(x))
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusExp
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with care near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with care near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next draws the next Zipf variate in [0, n), 0 being the hottest rank.
func (z *Zipf) Next() int {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.accept || u >= z.hIntegral(k+0.5)-z.h(k) {
			return int(k) - 1
		}
	}
}
