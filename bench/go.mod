module pdtl/bench

go 1.24

require pdtl v0.0.0

replace pdtl => ../
