module renaissance/benchmarks

go 1.24

require renaissance v0.0.0

replace renaissance => ../
