package dataset

import (
	"io"

	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/unit"
)

// Pred is a user predicate.
type Pred func(*User) bool

// matches reports whether a user satisfies every predicate — the shared
// core of the slice-based and streaming selectors.
func matches(u *User, preds []Pred) bool {
	for _, p := range preds {
		if !p(u) {
			return false
		}
	}
	return true
}

// SelectIdx returns the indices of the users satisfying every predicate,
// in ascending order. The selection holds no interior pointers, so it
// retains nothing once the indices are dropped.
func SelectIdx(users []User, preds ...Pred) []int {
	var out []int
	for i := range users {
		if matches(&users[i], preds) {
			out = append(out, i)
		}
	}
	return out
}

// UserSource yields users one record at a time; Read returns io.EOF after
// the last user. *UserReader (the streaming CSV iterator) implements it,
// as does the in-memory adapter returned by UsersOf, so selection logic is
// written once and runs over worlds larger than RAM.
type UserSource interface {
	Read(*User) error
}

// sliceUsers adapts an in-memory slice to UserSource.
type sliceUsers struct {
	users []User
	i     int
}

func (s *sliceUsers) Read(u *User) error {
	if s.i >= len(s.users) {
		return io.EOF
	}
	*u = s.users[s.i]
	s.i++
	return nil
}

// UsersOf adapts a user slice to a UserSource.
func UsersOf(users []User) UserSource { return &sliceUsers{users: users} }

// EachUser streams src through fn, stopping at the first error. Memory is
// constant: fn receives a pointer to a reused record and must copy what it
// keeps.
func EachUser(src UserSource, fn func(*User) error) error {
	var u User
	for {
		switch err := src.Read(&u); err {
		case nil:
			if err := fn(&u); err != nil {
				return err
			}
		case io.EOF:
			return nil
		default:
			return err
		}
	}
}

// SelectFrom streams src through the predicates, collecting the matching
// users by value. Memory is bounded by the matches, not the source — the
// streaming counterpart of SelectIdx.
func SelectFrom(src UserSource, preds ...Pred) ([]User, error) {
	var out []User
	err := EachUser(src, func(u *User) error {
		if matches(u, preds) {
			out = append(out, *u)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ByCountry keeps users in the given country.
func ByCountry(code string) Pred {
	return func(u *User) bool { return u.Country == code }
}

// NotCountry keeps users outside the given country.
func NotCountry(code string) Pred {
	return func(u *User) bool { return u.Country != code }
}

// ByVantage keeps users observed from the given platform.
func ByVantage(v Vantage) Pred {
	return func(u *User) bool { return u.Vantage == v }
}

// ByYear keeps users observed in the given year.
func ByYear(y int) Pred {
	return func(u *User) bool { return u.Year == y }
}

// ByTier keeps users whose measured capacity falls in the given tier.
func ByTier(t stats.Tier) Pred {
	return func(u *User) bool { return stats.TierOf(u.Capacity) == t }
}

// ByClass keeps users whose measured capacity falls in the given
// 100 kbps × 2^k capacity class.
func ByClass(c stats.CapacityClass) Pred {
	return func(u *User) bool { return c.Contains(u.Capacity) }
}

// CapacityBetween keeps users with measured capacity in (lo, hi].
func CapacityBetween(lo, hi unit.Bitrate) Pred {
	return func(u *User) bool { return u.Capacity > lo && u.Capacity <= hi }
}

// Metric extracts one demand (or context) figure from a user; experiments
// parameterize on it.
type Metric func(*User) float64

// Named demand metrics used throughout the experiments. All are in bits
// per second.
var (
	MeanUsage     Metric = func(u *User) float64 { return float64(u.Usage.Mean) }
	PeakUsage     Metric = func(u *User) float64 { return float64(u.Usage.Peak) }
	MeanUsageNoBT Metric = func(u *User) float64 { return float64(u.Usage.MeanNoBT) }
	PeakUsageNoBT Metric = func(u *User) float64 { return float64(u.Usage.PeakNoBT) }
)
