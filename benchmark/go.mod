module aigre/benchmark

go 1.22

require aigre v0.0.0

replace aigre => ../
