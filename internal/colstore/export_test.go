package colstore

// Test-only surface: the served write path routes rows through the
// transaction manager (routeLocked, Table.ApplyInsert) and reads at a
// ticket's snapshot, so only the tests append outside a transaction,
// ask which shard owns a key, or name the "latest" snapshot.

// SnapLatest is the snapshot timestamp meaning "read everything
// committed so far".
const SnapLatest int64 = 0

// ShardFor returns the index of the shard owning the given key value.
func (s *ShardedTable) ShardFor(key int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardForLocked(key)
}

// Append routes one row (user-schema order) to its owning shard and
// appends it there — the bulk, non-transactional write path.
func (s *ShardedTable) Append(vals ...any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, row, err := s.routeLocked(vals)
	if err != nil {
		return err
	}
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.appendRowLocked(row)
}
