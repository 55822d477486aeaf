module gptunecrowd/bench

go 1.22

require gptunecrowd v0.0.0

replace gptunecrowd => ../
