package repro

import java.util.concurrent.{Callable, ForkJoinPool, ForkJoinWorkerThread, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.NeuralFeatures
import scala.jdk.CollectionConverters._

class ParSpec extends AnyFunSuite {

  /** `body` as the one task of a fresh `ForkJoinPool(1)`. */
  private def inOneThreadPool[T](body: => T): T = {
    val pool = new ForkJoinPool(1)
    try pool.submit(new Callable[T] { def call(): T = body }).get(60, TimeUnit.SECONDS)
    finally pool.shutdown()
  }

  test("results keep input order when the first tasks are the slowest") {
    val sleeps = Vector(300, 200, 100, 0, 0, 0, 0, 0, 0, 0)
    val out = Par.map(sleeps.zipWithIndex) { case (ms, i) => Thread.sleep(ms.toLong); i }
    assert(out === sleeps.indices.toVector)
    assert(Par.map(Seq.empty[Int])(identity) === Vector.empty)
  }

  test("outside a pool the tasks run on the caller and the common pool") {
    val caller = Thread.currentThread()
    val threads = Par.map(0 until 32) { _ => Thread.sleep(5); Thread.currentThread() }
    threads.foreach {
      case t: ForkJoinWorkerThread => assert(t.getPool eq ForkJoinPool.commonPool())
      case t => assert(t eq caller)
    }
  }

  test("a failing task's exception reaches the caller with its type and message") {
    val e = intercept[IllegalStateException] {
      Par.map(0 until 8)(i => if (i == 5) throw new IllegalStateException("task 5") else i)
    }
    assert(e.getMessage === "task 5")
    val noSeqs = intercept[IllegalArgumentException] {
      NeuralFeatures.trainLstms(Map.empty, Map.empty, Seq.empty, NeuralFeatures.Config(lstmEpochs = 1), seed = 1L)
    }
    assert(noSeqs.getMessage === "requirement failed: no LSTM training sequences")
  }

  test("nested calls inside a ForkJoinPool(1) complete on its one worker, in order") {
    val (sums, threads) = inOneThreadPool {
      val outer = Thread.currentThread()
      val sums = Par.map(1 to 4)(i => Par.map(1 to 4)(j => i * j).sum)
      (sums, Par.map(1 to 4)(_ => Par.map(1 to 4)(_ => Thread.currentThread())).flatten :+ outer)
    }
    assert(sums === Vector(10, 20, 30, 40))
    assert(threads.distinct.size === 1)
    val order = inOneThreadPool {
      val seen = new java.util.concurrent.ConcurrentLinkedQueue[Int]()
      Par.map(0 until 6)(i => Par.map(0 until 3)(j => seen.add(10 * i + j)))
      seen.asScala.toVector
    }
    assert(order === (0 until 6).flatMap(i => (0 until 3).map(10 * i + _)).toVector)
  }
}
