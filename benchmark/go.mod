module evsdb/benchmark

go 1.22

require evsdb v0.0.0

replace evsdb => ../
