module m4lsm/bench

go 1.22

require m4lsm v0.0.0

replace m4lsm => ../
