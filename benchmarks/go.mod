module expelliarmus/benchmarks

go 1.24

require expelliarmus v0.0.0

replace expelliarmus => ../
