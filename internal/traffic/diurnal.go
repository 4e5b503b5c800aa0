package traffic

import "math"

// Diurnal activity: residential traffic follows a pronounced daily rhythm
// with a deep overnight trough and an evening peak. Activity returns the
// relative session-arrival intensity at an hour of day (fractional hours
// accepted); the profile integrates to ≈1 over 24 hours so daily session
// budgets are intensity-independent.
func Activity(hour float64) float64 {
	h := math.Mod(hour, 24)
	if h < 0 {
		h += 24
	}
	// Two-component profile: a broad daytime hump and a sharper evening
	// peak around 21:00, over a small overnight floor.
	day := 0.5 * gaussianBump(h, 14, 5)
	evening := 1.45 * gaussianBump(h, 21, 2.4)
	floor := 0.25
	return (floor + day + evening) / diurnalNorm
}

// hourlyActivity[h] is Activity at the middle of hour h: the intensity of
// the session draws for that hour of every day.
var hourlyActivity = func() (a [24]float64) {
	for h := range a {
		a[h] = Activity(float64(h) + 0.5)
	}
	return a
}()

// gaussianBump is a 24-hour-periodic Gaussian bump centered at c.
func gaussianBump(h, c, width float64) float64 {
	d := math.Abs(h - c)
	if d > 12 {
		d = 24 - d
	}
	return math.Exp(-d * d / (2 * width * width))
}

// diurnalNorm makes Activity average to 1 over the day.
var diurnalNorm = func() float64 {
	sum := 0.0
	const steps = 2400
	for i := 0; i < steps; i++ {
		h := 24 * float64(i) / steps
		day := 0.5 * gaussianBump(h, 14, 5)
		evening := 1.45 * gaussianBump(h, 21, 2.4)
		sum += 0.25 + day + evening
	}
	return sum / steps
}()
