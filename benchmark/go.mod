module ips/benchmark

go 1.22

require ips v0.0.0

replace ips => ../
