module briskstream/benchmark

go 1.24

require briskstream v0.0.0

replace briskstream => ../
