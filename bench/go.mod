module gpulat/bench

go 1.24

require gpulat v0.0.0

replace gpulat => ../
