module streamjoin/bench

go 1.24

require streamjoin v0.0.0

replace streamjoin => ../
