module vsmartjoin/benchmark

go 1.24

require vsmartjoin v0.0.0

replace vsmartjoin => ../
