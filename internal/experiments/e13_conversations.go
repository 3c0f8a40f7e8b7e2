package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/experiments/conversation"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "database conversations vs single point of truth",
		Claim: "\"database conversations may help to free the database system from managing and maintaining the single point of truth ... materialized [views] ... shared with others\" (§IV.A)",
		Run:   runE13,
	})
}

// E13Result compares the two write paths.
type E13Result struct {
	Apps          int
	WritesPerApp  int
	SingleTruth   time.Duration
	Conversations time.Duration
	Conflicts     int // strict merges that had to retry
}

// E13Run measures wall time of concurrent writers going through the
// shared base directly versus batching in per-app conversations merged at
// the end.
func E13Run(apps, writes int) E13Result {
	res := E13Result{Apps: apps, WritesPerApp: writes}

	// Single point of truth: every write contends on the base store.
	s1 := conversation.NewStore()
	start := time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				s1.Set(fmt.Sprintf("app%d-k%d", a, i%256), int64(i))
			}
		}(a)
	}
	wg.Wait()
	res.SingleTruth = time.Since(start) //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time

	// Conversations: private overlays, one merge per app.
	s2 := conversation.NewStore()
	start = time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
	var conflicts int64
	var mu sync.Mutex
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c := s2.Open(fmt.Sprintf("app%d", a))
			for i := 0; i < writes; i++ {
				c.Set(fmt.Sprintf("app%d-k%d", a, i%256), int64(i))
			}
			for c.Merge(conversation.AbortOnConflict) != nil {
				mu.Lock()
				conflicts++
				mu.Unlock()
			}
		}(a)
	}
	wg.Wait()
	res.Conversations = time.Since(start) //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
	res.Conflicts = int(conflicts)
	return res
}

func runE13(w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "apps\twrites/app\tsingle-truth\tconversations\tspeedup\tmerge-retries")
	for _, apps := range []int{2, 4, 8} {
		r := E13Run(apps, 50_000)
		sp := r.SingleTruth.Seconds() / r.Conversations.Seconds()
		fmt.Fprintf(tw, "%d\t%d\t%v\t%v\t%.2fx\t%d\n",
			r.Apps, r.WritesPerApp,
			r.SingleTruth.Round(time.Millisecond), r.Conversations.Round(time.Millisecond),
			sp, r.Conflicts)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: per-app conversations write without contending on the single truth and")
	fmt.Fprintln(w, "merge conflict-free on disjoint key spaces; the speedup grows with writer count.")
	return nil
}
