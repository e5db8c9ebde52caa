package stats

import "math"

// StudentTCDF returns P(T <= t) for a Student-t distribution with df
// degrees of freedom.
func StudentTCDF(t, df float64) float64 {
	if math.IsInf(t, -1) {
		return 0
	}
	if math.IsInf(t, 1) {
		return 1
	}
	// F(t) relates to the regularized incomplete beta function:
	// for t >= 0, F(t) = 1 - I_x(df/2, 1/2)/2 with x = df/(df+t^2).
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTQuantile returns the t value such that P(|T| <= t) = conf for a
// Student-t distribution with df degrees of freedom (two-sided). MeanCI
// builds the 99% confidence interval of a run's steady-state mean with it.
func StudentTQuantile(conf, df float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		return math.Inf(1)
	}
	target := 1 - (1-conf)/2 // one-sided CDF target
	lo, hi := 0.0, 1.0
	for StudentTCDF(hi, df) < target {
		hi *= 2
		if hi > 1e9 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, df) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// MeanCI returns the mean of xs and the half-width of its two-sided
// confidence interval at the given confidence level.
func MeanCI(xs []float64, conf float64) (mean, halfWidth float64, err error) {
	if len(xs) < 2 {
		return 0, 0, ErrInsufficientData
	}
	mean = Mean(xs)
	se := StdDev(xs) / math.Sqrt(float64(len(xs)))
	t := StudentTQuantile(conf, float64(len(xs)-1))
	return mean, t * se, nil
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpMin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
