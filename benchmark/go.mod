module realconfig/benchmark

go 1.22

require realconfig v0.0.0

replace realconfig => ../
