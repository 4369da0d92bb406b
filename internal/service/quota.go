package service

import (
	"fmt"
	"math"
	"time"

	"hotpotato/internal/persist"
)

// TenantQuota declares one tenant's admission budget on a topology: a
// token bucket refilled at Rate packets per second up to Burst. Rate 0
// with Burst 0 means unlimited (the bucket never gates). Only declared
// tenants may submit — an unknown tenant name is rejected outright, it
// does not default to unlimited.
type TenantQuota struct {
	Name  string  `json:"name"`
	Rate  float64 `json:"rate"`
	Burst float64 `json:"burst"`
}

func (q TenantQuota) validate() error {
	if q.Name == "" {
		return fmt.Errorf("service: tenant without a name")
	}
	if q.Rate < 0 || q.Burst < 0 || math.IsNaN(q.Rate) || math.IsNaN(q.Burst) ||
		math.IsInf(q.Rate, 0) || math.IsInf(q.Burst, 0) {
		return fmt.Errorf("service: tenant %q quota rate=%g burst=%g invalid", q.Name, q.Rate, q.Burst)
	}
	if (q.Rate == 0) != (q.Burst == 0) {
		return fmt.Errorf("service: tenant %q quota needs both rate and burst (or neither for unlimited)", q.Name)
	}
	return nil
}

// bucket is one tenant's live token bucket plus its quota-level ledger.
// It belongs to whoever holds its topology's engine token (see the
// package comment); no locking.
type bucket struct {
	rate, burst float64
	tokens      float64
	last        time.Time

	offered      int // every packet the tenant tried to submit
	quotaDropped int // packets the bucket rejected before the engine saw them
}

func newBucket(q TenantQuota, now time.Time) *bucket {
	// A fresh bucket starts full: a tenant's first burst is admitted.
	return &bucket{rate: q.Rate, burst: q.Burst, tokens: q.Burst, last: now}
}

// unlimited reports whether the bucket gates at all.
func (b *bucket) unlimited() bool { return b.rate == 0 && b.burst == 0 }

// take offers n packets at time now and returns how many the bucket
// admits (a prefix: callers admit the first k items of the batch).
func (b *bucket) take(n int, now time.Time) int {
	b.offered += n
	if b.unlimited() {
		return n
	}
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens = math.Min(b.burst, b.tokens+el*b.rate)
	}
	b.last = now
	k := int(b.tokens)
	if k > n {
		k = n
	}
	b.tokens -= float64(k)
	b.quotaDropped += n - k
	return k
}

// state freezes the bucket for a service snapshot.
func (b *bucket) state(name string) persist.TenantQuotaState {
	return persist.TenantQuotaState{
		Name: name, Rate: b.rate, Burst: b.burst, Tokens: b.tokens,
		Offered: b.offered, QuotaDropped: b.quotaDropped,
	}
}

// restoreBucket thaws a snapshot bucket. The refill clock restarts at
// now: wall-clock elapsed across the process gap intentionally does not
// refill tokens (the gap did not serve traffic either).
func restoreBucket(st persist.TenantQuotaState, now time.Time) *bucket {
	return &bucket{
		rate: st.Rate, burst: st.Burst, tokens: st.Tokens, last: now,
		offered: st.Offered, quotaDropped: st.QuotaDropped,
	}
}
