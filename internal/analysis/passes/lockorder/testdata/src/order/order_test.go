package order

func headSeqUnlocked(r *ring) uint64 { return r.headSeq() }
