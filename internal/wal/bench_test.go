package wal

import "testing"

// BenchmarkCommitLevels measures the functional log commit per QoS level.
func BenchmarkCommitLevels(b *testing.B) {
	for _, level := range []Level{Volatile, Local, Repl2, Repl3} {
		b.Run(level.String(), func(b *testing.B) {
			l := NewLog(DefaultConfig())
			for i := 0; i < b.N; i++ {
				l.Append(Record{TxID: uint64(i), Key: "k", Value: int64(i)})
				if _, err := l.Commit(level); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures replay speed.
func BenchmarkRecovery(b *testing.B) {
	l := NewLog(DefaultConfig())
	for i := 0; i < 100_000; i++ {
		l.Append(Record{TxID: uint64(i), Key: "k", Value: int64(i)})
	}
	if _, err := l.Commit(Local); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state := make(map[string]int64)
		l.Recover(func(r Record) { state[r.Key] = r.Value })
	}
}
